package nvme

// CIDTable maps the live command identifiers of one queue to per-command
// state. Hosts hand out CIDs from a wrapping per-queue counter, so the
// live CIDs of a queue sit in a short window: the table is direct-mapped
// on cid & mask and doubles only when two live CIDs land on one slot (a
// command that outlives a full lap of the table). At 65,536 slots no two
// CIDs collide. The zero value is an empty table.
type CIDTable[T any] struct {
	slots []cidSlot[T]
	n     int
}

type cidSlot[T any] struct {
	v    T
	cid  uint16
	live bool
}

// Put files v under cid. It returns false, leaving the table unchanged,
// when cid is already live.
//
//hwdp:hotpath
func (t *CIDTable[T]) Put(cid uint16, v T) bool {
	for {
		if len(t.slots) > 0 {
			s := &t.slots[int(cid)&(len(t.slots)-1)]
			if !s.live {
				s.v, s.cid, s.live = v, cid, true
				t.n++
				return true
			}
			if s.cid == cid {
				return false
			}
		}
		t.grow()
	}
}

// grow doubles the table (or makes its first slots) and refiles every
// live entry.
//
//hwdp:coldpath runs on a queue's first command and when a command outlives a full lap of the table; the size is bounded by 65,536 slots
func (t *CIDTable[T]) grow() {
	size := max(2*len(t.slots), 1) // one slot serves a queue with one command at a time
	old := t.slots
	t.slots = make([]cidSlot[T], size)
	for _, s := range old {
		if s.live {
			t.slots[int(s.cid)&(size-1)] = s
		}
	}
}

// Get returns the state filed under cid.
//
//hwdp:hotpath
func (t *CIDTable[T]) Get(cid uint16) (v T, ok bool) {
	if len(t.slots) == 0 {
		return v, false
	}
	s := &t.slots[int(cid)&(len(t.slots)-1)]
	if !s.live || s.cid != cid {
		return v, false
	}
	return s.v, true
}

// Take removes and returns the state filed under cid. ok is false when
// cid is not live (a stale or unknown CID).
//
//hwdp:hotpath
func (t *CIDTable[T]) Take(cid uint16) (v T, ok bool) {
	if len(t.slots) == 0 {
		return v, false
	}
	s := &t.slots[int(cid)&(len(t.slots)-1)]
	if !s.live || s.cid != cid {
		return v, false
	}
	v = s.v
	*s = cidSlot[T]{}
	t.n--
	return v, true
}

// Each calls fn with every live CID and its state, in slot order.
func (t *CIDTable[T]) Each(fn func(cid uint16, v T)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.live {
			fn(s.cid, s.v)
		}
	}
}

// Len returns the number of live CIDs.
func (t *CIDTable[T]) Len() int { return t.n }
