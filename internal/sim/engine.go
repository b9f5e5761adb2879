package sim

// Event is a scheduled callback. Events with equal times fire in the order
// they were scheduled (stable FIFO tie-break), which keeps runs
// deterministic.
//
// Events created by At/After are caller-visible handles (Cancel/Pending)
// and live until the garbage collector takes them. Events created by the
// Post* family never escape the engine, so they are recycled through an
// internal free list: steady-state scheduling on the hot path performs no
// allocations.
type Event struct {
	at  Time
	seq uint64

	// Exactly one of fn and afn is set. afn carries its argument in arg so
	// call sites can schedule a pre-bound method value without building a
	// fresh closure per event (the engine-side half of the zero-allocation
	// schedule/fire path).
	fn  func()
	afn func(any)
	arg any

	idx    int
	dead   bool
	pooled bool
}

// Cancel prevents a pending event from firing. Canceling an event that has
// already fired (or was already canceled) is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.dead = true
	}
}

// Pending reports whether the event is still scheduled to fire.
func (e *Event) Pending() bool { return e != nil && !e.dead && e.idx >= 0 }

// Engine is a single-threaded discrete-event simulator. It owns the virtual
// clock; all model components schedule work on it and must only be touched
// from event callbacks (or before Run).
//
// The queue is an indexed 4-ary min-heap specialized to *Event: compared to
// container/heap it avoids the interface boxing on every push/pop and the
// Less/Swap indirection, and the wider fan-out halves the tree depth for
// the sift-down that dominates pop.
type Engine struct {
	now   Time
	seq   uint64
	queue []*Event
	free  []*Event
	fired uint64

	// obs, when set, observes every fired event's timestamp. Tests use it
	// to hash the event stream for the event-stream pin.
	obs func(Time)
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetObserver installs fn to be called with every fired event's timestamp
// (nil uninstalls). The event-stream pin uses it to fingerprint the
// fired-event sequence; production paths leave it nil.
func (e *Engine) SetObserver(fn func(Time)) { e.obs = fn }

// Fired returns the number of events executed so far (useful for progress
// accounting and run limits in tests).
func (e *Engine) Fired() uint64 { return e.fired }

// alloc takes an event from the free list, or the heap allocator when the
// list is empty.
//
//hwdp:pool acquire event
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// recycle clears a pooled event and returns it to the free list. Handle
// events (At/After) are not recycled: the caller may hold the pointer
// indefinitely, and reusing it would let a stale Cancel kill an unrelated
// event.
//
//hwdp:pool release event
func (e *Engine) recycle(ev *Event) {
	if !ev.pooled {
		return
	}
	*ev = Event{pooled: true}
	e.free = append(e.free, ev)
}

// schedule clamps t to the current time and pushes the event.
func (e *Engine) schedule(ev *Event, t Time) {
	if t < e.now {
		t = e.now
	}
	ev.at = t
	ev.seq = e.seq
	e.seq++
	ev.idx = len(e.queue)
	//hwdp:ignore hotalloc queue growth is amortized: the heap reaches steady-state capacity and append stops allocating
	e.queue = append(e.queue, ev)
	e.siftUp(ev.idx)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) clamps to Now: the event fires on the current timestep, after
// already-pending events for that time. The returned handle supports
// Cancel and Pending.
func (e *Engine) At(t Time, fn func()) *Event {
	ev := &Event{fn: fn}
	e.schedule(ev, t)
	return ev
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) *Event { return e.At(e.now+d, fn) }

// AtArg schedules fn(arg) at absolute time t and returns a cancelable
// handle. Unlike At it takes the callback and its context separately, so a
// call site that would otherwise build a one-pointer closure per event can
// pass a method value bound once at construction instead.
func (e *Engine) AtArg(t Time, fn func(any), arg any) *Event {
	ev := &Event{afn: fn, arg: arg}
	e.schedule(ev, t)
	return ev
}

// AtArgPooled is AtArg with engine-recycled storage: the returned handle is
// valid only until the event fires or its cancellation is collected, after
// which the engine reuses the Event for a future Post*/pooled call. The
// caller must drop the handle when the callback runs and immediately after
// Cancel; retaining it past either point aliases an unrelated event.
// Model components use it for per-operation timeouts and completions whose
// holder discipline guarantees exactly that (the handle lives in a record
// that is itself reset at fire/cancel time).
//
//hwdp:hotpath
func (e *Engine) AtArgPooled(t Time, fn func(any), arg any) *Event {
	ev := e.alloc()
	ev.pooled = true
	ev.afn = fn
	ev.arg = arg
	e.schedule(ev, t)
	return ev
}

// Post schedules fn to run d after the current time, fire-and-forget: no
// handle is returned, and the event's storage is recycled after it fires.
// This is the zero-allocation-steady-state variant of After for call sites
// that never Cancel.
//
//hwdp:hotpath
func (e *Engine) Post(d Time, fn func()) {
	ev := e.alloc()
	ev.pooled = true
	ev.fn = fn
	e.schedule(ev, e.now+d)
}

// PostAt is Post with an absolute deadline.
//
//hwdp:hotpath
func (e *Engine) PostAt(t Time, fn func()) {
	ev := e.alloc()
	ev.pooled = true
	ev.fn = fn
	e.schedule(ev, t)
}

// PostArg schedules fn(arg) d after the current time, fire-and-forget.
// Combined with a pre-bound method value it makes the whole schedule/fire
// path allocation-free: no event, no closure, and no interface boxing for
// pointer-shaped args.
//
//hwdp:hotpath
func (e *Engine) PostArg(d Time, fn func(any), arg any) {
	ev := e.alloc()
	ev.pooled = true
	ev.afn = fn
	ev.arg = arg
	e.schedule(ev, e.now+d)
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It returns false when the queue is empty.
//
//hwdp:hotpath
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.pop()
		if ev.dead {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		e.fired++
		if e.obs != nil {
			e.obs(ev.at)
		}
		fn, afn, arg := ev.fn, ev.afn, ev.arg
		// Recycle before the callback runs so the callback's own scheduling
		// can reuse the slot.
		e.recycle(ev)
		if afn != nil {
			afn(arg)
		} else {
			fn()
		}
		return true
	}
	return false
}

// Run fires events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events until the queue drains or the clock would pass
// deadline. Events scheduled exactly at deadline still fire. It returns the
// clock value on exit.
func (e *Engine) RunUntil(deadline Time) Time {
	for len(e.queue) > 0 {
		// Peek: the root is the earliest event, but it may be dead; Step
		// handles skipping, so pre-check only live roots.
		if e.queue[0].at > deadline {
			if e.queue[0].dead {
				e.recycle(e.pop())
				continue
			}
			break
		}
		if !e.Step() {
			break
		}
	}
	if e.now < deadline && len(e.queue) == 0 {
		e.now = deadline
	}
	return e.now
}

// Pending returns the number of events in the queue, including canceled
// events not yet collected.
func (e *Engine) Pending() int { return len(e.queue) }

// less orders events by time, then schedule order. (at, seq) is a strict
// total order — seq is unique — so any heap yields the same pop sequence
// and determinism does not depend on heap shape.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pop removes and returns the heap root.
func (e *Engine) pop() *Event {
	root := e.queue[0]
	root.idx = -1
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	if n > 0 {
		e.queue[0] = last
		last.idx = 0
		e.siftDown(0)
	}
	return root
}

// siftUp restores the heap property from index i toward the root.
func (e *Engine) siftUp(i int) {
	ev := e.queue[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !less(ev, e.queue[p]) {
			break
		}
		e.queue[i] = e.queue[p]
		e.queue[i].idx = i
		i = p
	}
	e.queue[i] = ev
	ev.idx = i
}

// siftDown restores the heap property from index i toward the leaves.
func (e *Engine) siftDown(i int) {
	ev := e.queue[i]
	n := len(e.queue)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if less(e.queue[j], e.queue[m]) {
				m = j
			}
		}
		if !less(e.queue[m], ev) {
			break
		}
		e.queue[i] = e.queue[m]
		e.queue[i].idx = i
		i = m
	}
	e.queue[i] = ev
	ev.idx = i
}
