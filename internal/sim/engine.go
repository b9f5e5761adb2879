package sim

// Event is a scheduled callback. Events with equal times fire in the order
// they were scheduled (stable FIFO tie-break), which keeps runs
// deterministic.
//
// Every event's storage is owned by the engine and recycled through its
// Pool, so steady-state scheduling performs no allocations.
// Post and PostArg are fire-and-forget and return no handle. AtArgPooled
// returns a handle for Cancel and Pending that is valid only until the
// event fires or is canceled: after either, the engine reuses the storage
// for a later event, so the holder must drop the handle at both points.
//
// Cancel removes the event from the queue at once, so the queue holds only
// live events and a canceled event's storage is reused by the next
// schedule.
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

	eng *Engine
	// idx is the heap position, -1 once fired, canceled or recycled. It is
	// 32 bits wide so the Event stays in the 64-byte size class.
	idx int32
}

// Cancel removes a pending event from the queue; it will never fire.
// Until the engine reuses the storage, canceling an event that has already
// fired (including from inside its own callback) or was already canceled
// is a no-op.
func (ev *Event) Cancel() {
	if ev == nil || ev.idx < 0 {
		return
	}
	ev.eng.remove(ev)
}

// Pending reports whether the event is still scheduled to fire.
func (ev *Event) Pending() bool { return ev != nil && ev.idx >= 0 }

// Engine is a single-threaded discrete-event simulator. It owns the virtual
// clock; all model components schedule work on it and must only be touched
// from event callbacks (or before Run).
//
// The queue is an indexed 4-ary min-heap specialized to *Event: compared to
// container/heap it avoids the interface boxing on every push/pop and the
// Less/Swap indirection, and the wider fan-out halves the tree depth for
// the sift-down that dominates pop.
type Engine struct {
	now    Time
	seq    uint64
	last   uint64 // seq of the event firing now, or fired last (see Reached)
	queue  []*Event
	events Pool[Event]
	fired  uint64

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

// schedule clamps t to the current time and pushes the event.
func (e *Engine) schedule(ev *Event, t Time) {
	if t < e.now {
		t = e.now
	}
	ev.at = t
	ev.eng = e
	ev.seq = e.seq
	e.seq++
	ev.idx = int32(len(e.queue))
	//hwdp:ignore hotalloc queue growth is amortized: the heap reaches steady-state capacity and append stops allocating
	e.queue = append(e.queue, ev)
	e.siftUp(int(ev.idx))
}

// AtArgPooled schedules fn(arg) at absolute virtual time t and returns a
// handle for Cancel and Pending. Scheduling in the past (t < Now) clamps
// to Now: the event fires on the current timestep, after already-pending
// events for that time. The handle is valid only until the event fires or
// is canceled, after which the engine reuses the Event for a later
// schedule. The caller must drop the handle when the callback runs and
// immediately after Cancel; retaining it past either point aliases an
// unrelated event. Model components use it for per-operation timeouts and
// completions whose holder discipline guarantees exactly that (the handle
// lives in a record that is itself reset at fire/cancel time).
//
//hwdp:hotpath
func (e *Engine) AtArgPooled(t Time, fn func(any), arg any) *Event {
	ev := e.events.Get()
	ev.afn = fn
	ev.arg = arg
	e.schedule(ev, t)
	return ev
}

// Post schedules fn to run d after the current time, fire-and-forget: no
// handle is returned, and the event's storage is recycled after it fires.
// Call sites that may Cancel use AtArgPooled instead.
//
//hwdp:hotpath
func (e *Engine) Post(d Time, fn func()) {
	ev := e.events.Get()
	ev.fn = fn
	e.schedule(ev, e.now+d)
}

// PostArg schedules fn(arg) d after the current time, fire-and-forget.
// Combined with a pre-bound method value it makes the whole schedule/fire
// path allocation-free: no event, no closure, and no interface boxing for
// pointer-shaped args.
//
//hwdp:hotpath
func (e *Engine) PostArg(d Time, fn func(any), arg any) {
	ev := e.events.Get()
	ev.afn = fn
	ev.arg = arg
	e.schedule(ev, e.now+d)
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It returns false when the queue is empty.
//
//hwdp:hotpath
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.pop()
	e.now, e.last = ev.at, ev.seq
	e.fired++
	if e.obs != nil {
		e.obs(ev.at)
	}
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	// Recycle before the callback runs so the callback's own scheduling
	// can reuse the slot.
	*ev = Event{idx: -1}
	e.events.Put(ev)
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
	return true
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
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now <= deadline && len(e.queue) == 0 {
		e.now, e.last = deadline, e.seq
	}
	return e.now
}

// Mark is a slot in the engine's event order: a time and a seq, taken the
// way an event takes them but with nothing scheduled. A component whose
// event would only change the component's own state can take a mark
// instead of posting it, and make the change the first time it is touched
// once the mark is Reached. Every event then sees the state it would have
// seen had the event fired, ties at one picosecond included.
type Mark struct {
	at  Time
	seq uint64
}

// MarkAfter takes the slot that PostArg(d, ...) would give an event now.
func (e *Engine) MarkAfter(d Time) Mark {
	m := Mark{at: max(e.now+d, e.now), seq: e.seq}
	e.seq++
	return m
}

// Reached reports whether an event in m's slot would have fired by now:
// m comes before the event firing now (or the last one fired), or, once
// RunUntil has drained the queue, at or before its deadline.
func (e *Engine) Reached(m Mark) bool {
	return m.at < e.now || m.at == e.now && m.seq < e.last
}

// Pending returns the number of events in the queue. Canceled events leave
// the queue at Cancel, so every counted event will fire.
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

// remove takes a queued event out of the heap (Cancel) and recycles its
// storage.
func (e *Engine) remove(ev *Event) {
	i := int(ev.idx)
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue[n] = nil
	e.queue = e.queue[:n]
	ev.idx = -1
	if i < n {
		e.queue[i] = last
		last.idx = int32(i)
		if i > 0 && less(last, e.queue[(i-1)>>2]) {
			e.siftUp(i)
		} else {
			e.siftDown(i)
		}
	}
	*ev = Event{idx: -1}
	e.events.Put(ev)
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
		e.queue[i].idx = int32(i)
		i = p
	}
	e.queue[i] = ev
	ev.idx = int32(i)
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
		e.queue[i].idx = int32(i)
		i = m
	}
	e.queue[i] = ev
	ev.idx = int32(i)
}
