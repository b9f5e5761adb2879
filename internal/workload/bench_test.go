package workload

import (
	"math"
	"testing"

	"hwdp/internal/core"
	"hwdp/internal/kernel"
	"hwdp/internal/kvs"
	"hwdp/internal/metrics"
	"hwdp/internal/sim"
)

func BenchmarkZipfianNext(b *testing.B) {
	z := NewZipfian(1<<20, ZipfTheta)
	r := sim.NewRand(1)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= z.Next(r)
	}
	_ = sink
}

func BenchmarkScrambledNext(b *testing.B) {
	s := Scrambled{Gen: NewZipfian(1<<20, ZipfTheta), N: 1 << 20}
	r := sim.NewRand(1)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= s.Next(r)
	}
	_ = sink
}

// TestGeneratorsBoundedAndDeterministic asserts the correctness of the
// generators the benchmarks above measure: outputs stay in range and a
// fixed seed reproduces the same sequence.
func TestGeneratorsBoundedAndDeterministic(t *testing.T) {
	const n = 1 << 20
	z1, z2 := NewZipfian(n, ZipfTheta), NewZipfian(n, ZipfTheta)
	r1, r2 := sim.NewRand(9), sim.NewRand(9)
	s := Scrambled{Gen: NewZipfian(n, ZipfTheta), N: n}
	rs := sim.NewRand(9)
	for i := 0; i < 5000; i++ {
		a, b := z1.Next(r1), z2.Next(r2)
		if a != b {
			t.Fatalf("zipfian diverged at draw %d: %d vs %d", i, a, b)
		}
		if a >= n {
			t.Fatalf("zipfian out of range: %d >= %d", a, n)
		}
		if v := s.Next(rs); v >= n {
			t.Fatalf("scrambled out of range: %d >= %d", v, n)
		}
	}
}

// TestZipfianMatchesDirectFormula pins Next, whose item-1 bound is
// precomputed in NewZipfian, against the formula evaluated in full on
// every draw: 100,000 draws from one seed return the same keys.
func TestZipfianMatchesDirectFormula(t *testing.T) {
	const n = 1 << 20
	z := NewZipfian(n, ZipfTheta)
	direct := func(r *sim.Rand) uint64 {
		u := r.Float64()
		uz := u * z.zetan
		if uz < 1.0 {
			return 0
		}
		if uz < 1.0+math.Pow(0.5, z.theta) {
			return 1
		}
		return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	r1, r2 := sim.NewRand(7), sim.NewRand(7)
	hits1 := 0
	for i := 0; i < 100000; i++ {
		got, want := z.Next(r1), direct(r2)
		if got != want {
			t.Fatalf("draw %d: Next = %d, direct formula = %d", i, got, want)
		}
		if got == 1 {
			hits1++
		}
	}
	if hits1 == 0 {
		t.Fatal("no draw returned item 1: the precomputed bound was never exercised")
	}
}

// kvRig drives YCSB-A ops one at a time on one thread over a table small
// enough to stay resident: after warm-up every record is mapped, cached
// and already versioned, so an op exercises only the steady-state KV path
// (Op, Get or Put with its WAL append, LoadPage or StorePage).
type kvRig struct {
	sys     *core.System
	kv      *KV
	th      *kernel.Thread
	rng     *sim.Rand
	done    bool
	err     error
	doneFn  func(error)
	pending func() bool
}

func newKVRig(tb testing.TB) *kvRig {
	tb.Helper()
	sys := testSystem(tb, kernel.HWDP)
	st, err := kvs.Create(sys.K, sys.FS, sys.Proc, "db", 64, 0, 0, sys.FastFlags())
	if err != nil {
		tb.Fatal(err)
	}
	kv, err := NewYCSB(sys, st, 'A')
	if err != nil {
		tb.Fatal(err)
	}
	r := &kvRig{sys: sys, kv: kv, th: sys.WorkloadThread(0), rng: sim.NewRand(5)}
	r.doneFn = func(err error) { r.done, r.err = true, err }
	r.pending = func() bool { return !r.done }
	for i := 0; i < 5000; i++ {
		r.op(tb)
	}
	return r
}

// op runs one op to completion.
func (r *kvRig) op(tb testing.TB) {
	r.done = false
	r.kv.Op(r.th, r.rng, r.doneFn)
	r.sys.RunWhile(r.pending)
	if !r.done || r.err != nil {
		tb.Fatalf("op: done=%v err=%v", r.done, r.err)
	}
}

// TestKVOpAllocationBudget pins the steady-state KV op path at zero
// allocations: the workload, store and kernel phases ride per-thread
// carriers bound once, so no op builds a closure.
func TestKVOpAllocationBudget(t *testing.T) {
	r := newKVRig(t)
	before := r.kv.Store.Keys()
	if n := len(r.kv.versions); uint64(n) != before {
		t.Fatalf("warm-up versioned %d of %d records", n, before)
	}
	got := testing.AllocsPerRun(2000, func() { r.op(t) })
	if got != 0 {
		t.Fatalf("a steady-state YCSB-A op allocates %.1f objects/op, want 0", got)
	}
	if s := r.sys.K.Stats(); s.Evictions != 0 {
		t.Fatalf("%d evictions: the table did not stay resident", s.Evictions)
	}
}

// BenchmarkKVOp measures one steady-state YCSB-A op (Get or Put) over a
// resident table.
func BenchmarkKVOp(b *testing.B) {
	r := newKVRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.op(b)
	}
}

// TestBareFIOOpAllocationBudget pins the op campaign threads run at zero
// allocations: a warm op with no per-op cost, on a resident page, rides
// the thread's carrier, whose phases are bound once. The latency sink
// fleet tenants use is armed too.
func TestBareFIOOpAllocationBudget(t *testing.T) {
	sys := testSystem(t, kernel.HWDP)
	const pages = 16
	f, err := SetupFIO(sys, "fio", pages, sys.FastFlags())
	if err != nil {
		t.Fatal(err)
	}
	f.Gen = Scrambled{Gen: NewZipfian(pages, ZipfTheta), N: pages}
	f.WriteFrac, f.Populate, f.Bare = 0.3, true, true
	f.Lat = metrics.NewHistogram()
	th, rng := sys.WorkloadThread(0), sim.NewRand(5)
	var done bool
	var opErr error
	doneFn := func(err error) { done, opErr = true, err }
	pending := func() bool { return !done }
	op := func() {
		done = false
		f.Op(th, rng, doneFn)
		sys.RunWhile(pending)
		if !done || opErr != nil {
			t.Fatalf("op: done=%v err=%v", done, opErr)
		}
	}
	for i := 0; i < pages; i++ {
		op() // the populate sweep makes every page resident
	}
	got := testing.AllocsPerRun(2000, op)
	if got != 0 {
		t.Fatalf("a warm bare op allocates %.1f objects/op, want 0", got)
	}
	if s := sys.MMU.Stats(); s.HWMisses != pages || s.OSFaults != 0 {
		t.Fatalf("mmu stats %+v: want %d hardware misses, then only hits", s, pages)
	}
}
