package sim

import (
	"sort"
	"testing"
)

// Allocation pins for the engine hot path. The Post* family and AtArgPooled
// promise zero steady-state allocations (events are recycled through the
// engine free list); these pins keep that promise from regressing silently.
// AllocsPerRun warms the pool with a first run before measuring, so the
// one-time pool growth does not count.

func TestPostAllocationBudget(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	got := testing.AllocsPerRun(1000, func() {
		e.Post(10, fn)
		e.Step()
	})
	if got != 0 {
		t.Fatalf("Post+Step allocates %.1f objects/op, want 0", got)
	}
}

func TestPostArgAllocationBudget(t *testing.T) {
	e := NewEngine()
	type ctx struct{ n int }
	c := &ctx{}
	fn := func(a any) { a.(*ctx).n++ }
	got := testing.AllocsPerRun(1000, func() {
		e.PostArg(10, fn, c)
		e.Step()
	})
	if got != 0 {
		t.Fatalf("PostArg+Step allocates %.1f objects/op, want 0", got)
	}
	if c.n == 0 {
		t.Fatal("callback never ran")
	}
}

func TestAtArgPooledAllocationBudget(t *testing.T) {
	e := NewEngine()
	type ctx struct{ n int }
	c := &ctx{}
	fn := func(a any) { a.(*ctx).n++ }
	got := testing.AllocsPerRun(1000, func() {
		ev := e.AtArgPooled(e.Now()+10, fn, c)
		_ = ev.Pending()
		e.Step()
	})
	if got != 0 {
		t.Fatalf("AtArgPooled+Step allocates %.1f objects/op, want 0", got)
	}
}

func TestScheduleFormsShareOneOrder(t *testing.T) {
	// Post, PostArg and AtArgPooled observe one (at, seq) total order:
	// mixing them at equal timestamps fires in schedule order.
	e := NewEngine()
	var order []int
	e.AtArgPooled(20, func(any) { order = append(order, 1) }, nil)
	e.Post(20, func() { order = append(order, 2) })
	e.PostArg(20, func(any) { order = append(order, 3) }, nil)
	e.Post(10, func() { order = append(order, 0) })
	e.Run()
	want := []int{0, 1, 2, 3}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPostArgDeliversArgument(t *testing.T) {
	e := NewEngine()
	type payload struct{ v int }
	p := &payload{v: 41}
	e.PostArg(5, func(a any) { a.(*payload).v++ }, p)
	e.Run()
	if p.v != 42 {
		t.Fatalf("arg callback saw %d, want 42", p.v)
	}
}

func TestAtArgPooledCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.AtArgPooled(10, func(any) { fired = true }, nil)
	ev.Cancel()
	ev = nil // holder discipline: drop the handle immediately after Cancel
	e.Run()
	if fired {
		t.Fatal("canceled pooled event fired")
	}
}

func TestPooledEventRecycledAfterFire(t *testing.T) {
	// A pooled event's storage must be reused, and the reuse must not let
	// the earlier (dropped) handle affect the later event.
	e := NewEngine()
	ev1 := e.AtArgPooled(10, func(any) {}, nil)
	e.Run()
	ev2 := e.AtArgPooled(20, func(any) {}, nil)
	if ev1 != ev2 {
		t.Fatal("pooled event storage was not recycled after firing")
	}
	n := 0
	e.PostArg(5, func(any) { n++ }, nil)
	e.Run()
	if n != 1 {
		t.Fatalf("recycled event fired %d times, want 1", n)
	}
}

func TestCancelRemovesPooledEventEagerly(t *testing.T) {
	// Cancel takes a pooled event out of the queue at once and returns its
	// storage to the free list: Pending drops, and the next Post reuses
	// the slot.
	e := NewEngine()
	fired := 0
	ev := e.AtArgPooled(10, func(any) { fired++ }, nil)
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	ev.Cancel()
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after Cancel, want 0", e.Pending())
	}
	if ev.Pending() {
		t.Fatal("canceled event still reports Pending")
	}
	canceled := ev
	ev = nil // holder discipline: drop the handle immediately after Cancel
	e.Post(20, func() {})
	if e.queue[0] != canceled {
		t.Fatal("Post did not reuse the canceled pooled slot")
	}
	e.Run()
	if fired != 0 {
		t.Fatal("canceled event fired")
	}
	if e.Fired() != 1 {
		t.Fatalf("fired = %d, want 1 (canceled events are never counted)", e.Fired())
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	// A pooled event canceling itself from inside its own callback, before
	// it schedules anything: the slot sits in the free list, so Cancel
	// does nothing and every other queued event still fires.
	e := NewEngine()
	var pev *Event
	pooledFired := 0
	pev = e.AtArgPooled(5, func(any) {
		pooledFired++
		pev.Cancel()
		pev = nil
	}, nil)
	e.Post(5, func() { pooledFired++ })
	e.Run()
	if pooledFired != 2 {
		t.Fatalf("pooled events fired %d times, want 2", pooledFired)
	}
}

func TestRunUntilStopsAtCanceledDeadline(t *testing.T) {
	// A canceled event past the deadline is gone from the queue, so
	// RunUntil advances the clock to the deadline as on an empty queue.
	e := NewEngine()
	ev := e.AtArgPooled(100, func(any) {}, nil)
	ev.Cancel()
	e.RunUntil(50)
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
	if e.Now() != 50 {
		t.Fatalf("now = %d, want 50", e.Now())
	}
}

func TestCancelPropertyMatchesSortedReference(t *testing.T) {
	// Random Post/AtArgPooled schedules interleaved with Cancel of random
	// live handles, including from inside callbacks: the fire order must
	// equal the live events sorted by (time, schedule order). A handle is
	// dropped when its event fires, as the AtArgPooled contract requires.
	type handle struct {
		id int
		ev *Event
	}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRand(seed)
		e := NewEngine()
		var at []Time // deadline by id; ids are assigned in schedule order
		canceled := map[int]bool{}
		var handles []handle // cancelable and still queued
		var fired []int
		drop := func(id int) {
			for i, h := range handles {
				if h.id == id {
					handles = append(handles[:i], handles[i+1:]...)
					return
				}
			}
		}
		cancelOne := func() {
			if len(handles) == 0 {
				return
			}
			i := rng.Intn(len(handles))
			h := handles[i]
			handles = append(handles[:i], handles[i+1:]...)
			h.ev.Cancel()
			canceled[h.id] = true
		}
		var schedule func()
		record := func(id int) {
			drop(id)
			fired = append(fired, id)
			switch rng.Intn(6) {
			case 0:
				schedule()
			case 1:
				cancelOne()
			}
		}
		schedule = func() {
			id := len(at)
			d := Time(rng.Intn(50))
			at = append(at, e.Now()+d)
			if rng.Intn(3) == 0 {
				e.Post(d, func() { record(id) })
			} else {
				ev := e.AtArgPooled(e.Now()+d, func(any) { record(id) }, nil)
				handles = append(handles, handle{id, ev})
			}
		}
		for i := 0; i < 400; i++ {
			if rng.Intn(3) == 0 {
				cancelOne()
			} else {
				schedule()
			}
			if rng.Intn(5) == 0 {
				e.Step()
			}
		}
		e.Run()

		var want []int
		for id := range at {
			if !canceled[id] {
				want = append(want, id)
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return at[want[i]] < at[want[j]] })
		if len(fired) != len(want) {
			t.Fatalf("seed %d: fired %d events, want %d", seed, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: fire order diverges at %d: got id %d, want %d", seed, i, fired[i], want[i])
			}
		}
		if e.Fired() != uint64(len(want)) {
			t.Fatalf("seed %d: Fired() = %d, want %d", seed, e.Fired(), len(want))
		}
		if e.Pending() != 0 {
			t.Fatalf("seed %d: pending = %d after drain", seed, e.Pending())
		}
	}
}
