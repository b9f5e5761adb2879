package kernel

// ThreadTable holds one value per software thread, indexed by Thread.ID
// (the hardware thread the thread is pinned to): the per-thread op
// carriers of workloads and stores live in one. A slot remembers its
// thread, so a second thread pinned to the same hardware thread misses
// and binds a value of its own. The zero value is an empty table.
type ThreadTable[T any] struct {
	slots []threadSlot[T]
}

type threadSlot[T any] struct {
	th *Thread
	v  T
}

// Get returns th's value. ok is false when th has none yet.
//
//hwdp:hotpath
func (t *ThreadTable[T]) Get(th *Thread) (v T, ok bool) {
	if th.ID < len(t.slots) && t.slots[th.ID].th == th {
		return t.slots[th.ID].v, true
	}
	return v, false
}

// Set binds v to th, replacing the value of any thread that held th's
// slot before. The first Set sizes the table to the machine's hardware
// threads.
//
//hwdp:coldpath runs once per thread, when its carrier is built
func (t *ThreadTable[T]) Set(th *Thread, v T) {
	if th.ID >= len(t.slots) {
		n := max(th.ID+1, len(th.Proc.k.cpu.Threads()))
		t.slots = append(t.slots, make([]threadSlot[T], n-len(t.slots))...)
	}
	t.slots[th.ID] = threadSlot[T]{th: th, v: v}
}
