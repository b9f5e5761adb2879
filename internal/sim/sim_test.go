package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Microsecond != 1_000_000*Picosecond {
		t.Fatalf("microsecond = %d ps", int64(Microsecond))
	}
	if got := Micro(10.9); got != 10_900_000*Picosecond {
		t.Fatalf("Micro(10.9) = %d", int64(got))
	}
	if got := Nano(77.16); got != 77_160*Picosecond {
		t.Fatalf("Nano(77.16) = %d", int64(got))
	}
}

func TestCycleConversion(t *testing.T) {
	if CyclePS != 357 {
		t.Fatalf("cycle = %d ps, want 357", int64(CyclePS))
	}
	if got := Cycles(97); got != 97*357 {
		t.Fatalf("Cycles(97) = %d", int64(got))
	}
	if got := Cycles(97).ToCycles(); got != 97 {
		t.Fatalf("round-trip 97 cycles = %d", got)
	}
	if got := Time(0).ToCycles(); got != 0 {
		t.Fatalf("0 ToCycles = %d", got)
	}
}

func TestCyclesRoundTripProperty(t *testing.T) {
	f := func(n int32) bool {
		c := int64(n % 1_000_000)
		return Cycles(c).ToCycles() == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ps"},
		{Nano(77.16), "77.16ns"},
		{Micro(10.9), "10.90us"},
		{4 * Millisecond, "4.000ms"},
		{2 * Second, "2.000s"},
		{-Micro(1), "-1.00us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Post(30, func() { order = append(order, 3) })
	e.Post(10, func() { order = append(order, 1) })
	e.Post(20, func() { order = append(order, 2) })
	// Same timestamp: FIFO.
	e.Post(20, func() { order = append(order, 4) })
	e.Run()
	want := []int{1, 2, 4, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("now = %d", e.Now())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var tick func()
	tick = func() {
		ticks = append(ticks, e.Now())
		if len(ticks) < 5 {
			e.Post(100, tick)
		}
	}
	e.Post(0, tick)
	e.Run()
	if len(ticks) != 5 || ticks[4] != 400 {
		t.Fatalf("ticks = %v", ticks)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.AtArgPooled(10, func(any) { fired = true }, nil)
	if !ev.Pending() {
		t.Fatal("event should be pending")
	}
	ev.Cancel()
	ev.Cancel() // double-cancel is a no-op
	ev = nil    // holder discipline: drop the handle after Cancel
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.Post(100, func() {
		e.AtArgPooled(50, func(any) { at = e.Now() }, nil) // in the past
	})
	e.Run()
	if at != 100 {
		t.Fatalf("past event fired at %d, want 100", at)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, ts := range []Time{10, 20, 30, 40} {
		ts := ts
		e.Post(ts, func() { fired = append(fired, ts) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired = %v", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("now = %d", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired = %v", fired)
	}
	// Queue empty: clock advances to the deadline.
	e.RunUntil(200)
	if e.Now() != 200 {
		t.Fatalf("now = %d, want 200", e.Now())
	}
}

func TestEngineRunUntilInclusive(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Post(25, func() { n++ })
	e.RunUntil(25)
	if n != 1 {
		t.Fatal("event at deadline should fire")
	}
}

func TestEngineHeapProperty(t *testing.T) {
	// Random schedules always fire in nondecreasing time order.
	f := func(seed uint64) bool {
		r := NewRand(seed)
		e := NewEngine()
		var times []Time
		for i := 0; i < 200; i++ {
			ts := Time(r.Intn(1000))
			e.Post(ts, func() { times = append(times, e.Now()) })
		}
		e.Run()
		return sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] }) && len(times) == 200
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d times", same)
	}
}

func TestRandFork(t *testing.T) {
	r := NewRand(7)
	s1 := r.Fork(1)
	r2 := NewRand(7)
	_ = r2.Uint64() // Fork consumed one draw
	s1b := NewRand(7).Fork(1)
	if s1.Uint64() != s1b.Uint64() {
		t.Fatal("fork not deterministic")
	}
}

func TestRandUniformity(t *testing.T) {
	r := NewRand(99)
	const n = 100000
	buckets := make([]int, 10)
	for i := 0; i < n; i++ {
		buckets[r.Intn(10)]++
	}
	for i, b := range buckets {
		if b < n/10-n/50 || b > n/10+n/50 {
			t.Fatalf("bucket %d = %d, not uniform", i, b)
		}
	}
}

func TestRandFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Exp(3.0)
	}
	mean := sum / n
	if mean < 2.9 || mean > 3.1 {
		t.Fatalf("exp mean = %f, want ~3.0", mean)
	}
}

func TestRandNormMoments(t *testing.T) {
	r := NewRand(6)
	var sum, sq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	varr := sq/n - mean*mean
	if mean < 9.95 || mean > 10.05 {
		t.Fatalf("norm mean = %f", mean)
	}
	if varr < 3.8 || varr > 4.2 {
		t.Fatalf("norm var = %f", varr)
	}
}

func TestRandPerm(t *testing.T) {
	r := NewRand(1)
	p := r.Perm(50)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad perm %v", p)
		}
		seen[v] = true
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRand(1).Intn(0)
}

// TestMarkReachedMatchesEvent drives two engines through one random
// schedule in which events post further events and take marks at small
// delays, so many land on one picosecond. On one engine a mark is
// MarkAfter; on the other it is a real event that records its firing. In
// every event, Reached on the first must agree with fired on the second.
func TestMarkReachedMatchesEvent(t *testing.T) {
	run := func(seed uint64, real bool) []bool {
		e := NewEngine()
		r := NewRand(seed)
		var marks []Mark
		var fired, log []bool
		steps := 0
		var step func()
		step = func() {
			for i := range fired {
				if real {
					log = append(log, fired[i])
				} else {
					log = append(log, e.Reached(marks[i]))
				}
			}
			if steps++; steps > 300 {
				return
			}
			for k := r.Intn(3); k > 0; k-- {
				d := Time(r.Intn(4))
				if r.Intn(2) == 0 {
					e.Post(d, step)
					continue
				}
				i := len(fired)
				fired = append(fired, false)
				if real {
					e.Post(d, func() { fired[i] = true })
				} else {
					marks = append(marks, e.MarkAfter(d))
				}
			}
		}
		e.Post(0, step)
		e.Run()
		return log
	}
	for seed := uint64(1); seed <= 50; seed++ {
		want, got := run(seed, true), run(seed, false)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d observations, want %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: observation %d: Reached %v, event fired %v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestRunUntilDrainReachesMarks: once RunUntil has drained the queue, a
// mark at or before its deadline counts as reached, as an event there
// would have fired; one after it does not.
func TestRunUntilDrainReachesMarks(t *testing.T) {
	e := NewEngine()
	var at, after Mark
	e.Post(10, func() { at, after = e.MarkAfter(0), e.MarkAfter(1) })
	e.RunUntil(10)
	if !e.Reached(at) || e.Reached(after) {
		t.Fatalf("after draining to 10: mark at 10 reached %v, at 11 reached %v", e.Reached(at), e.Reached(after))
	}
}
