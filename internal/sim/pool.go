package sim

// Pool is a LIFO free list of *T records, the one recycling mechanism of
// the model's carriers: the engine's events, the MMU's miss records, the
// SMU's admission and notice carriers, the device's flights and the
// kernel's continuations. Get returns the record Put last, or a new zero
// record when the list is empty, so a warm Get/Put cycle allocates
// nothing. The zero Pool is empty and ready to use.
//
// Put does not clear the record: the caller resets what it must first,
// so a carrier keeps the callbacks it bound once across reuse. A carrier
// that binds callbacks does so on the first Get of a new record, which it
// tells by a field its binding sets.
type Pool[T any] struct {
	free []*T
}

// Get takes the record Put last, or a new zero record from an empty list.
// It makes no call, so it inlines into its callers.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return v
	}
	//hwdp:ignore hotalloc pool growth: a record is made only while the list is empty, until the pool holds the peak number in flight
	return new(T)
}

// Put hands v back; the next Get returns it.
func (p *Pool[T]) Put(v *T) {
	//hwdp:ignore hotalloc pool growth: the list's backing array stops growing once it holds the peak number in flight
	p.free = append(p.free, v)
}
