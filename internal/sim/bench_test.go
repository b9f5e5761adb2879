package sim

import "testing"

func BenchmarkEngineScheduleAndFire(b *testing.B) {
	e := NewEngine()
	fn := func(any) {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.AtArgPooled(e.Now()+Time(i%1000), fn, nil)
		if e.Pending() > 1024 {
			for e.Step() {
			}
		}
	}
	e.Run()
}

func BenchmarkEngineNestedChain(b *testing.B) {
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Post(100, tick)
		}
	}
	e.Post(0, tick)
	e.Run()
}

func BenchmarkRandUint64(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkRandNorm(b *testing.B) {
	r := NewRand(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Norm(10, 2)
	}
	_ = sink
}

func BenchmarkEnginePostAndFire(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Post(Time(i%1000), fn)
		if e.Pending() > 1024 {
			for e.Step() {
			}
		}
	}
	e.Run()
}

func BenchmarkEnginePostArgAndFire(b *testing.B) {
	e := NewEngine()
	type ctx struct{ n int }
	c := &ctx{}
	fn := func(a any) { a.(*ctx).n++ }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.PostArg(Time(i%1000), fn, c)
		if e.Pending() > 1024 {
			for e.Step() {
			}
		}
	}
	e.Run()
}

// TestBenchmarkLoopsDrainCompletely asserts the correctness of the loop
// shape the engine benchmarks above share: every scheduled event fires
// exactly once and the queue is empty afterward.
func TestBenchmarkLoopsDrainCompletely(t *testing.T) {
	e := NewEngine()
	fired := 0
	fn := func() { fired++ }
	const n = 5000
	for i := 0; i < n; i++ {
		e.Post(Time(i%1000), fn)
		if e.Pending() > 1024 {
			for e.Step() {
			}
		}
	}
	e.Run()
	if fired != n {
		t.Fatalf("fired %d of %d events", fired, n)
	}
	if e.Pending() != 0 {
		t.Fatalf("queue not drained: %d pending", e.Pending())
	}
	if e.Fired() != n {
		t.Fatalf("Fired() = %d, want %d", e.Fired(), n)
	}
}
