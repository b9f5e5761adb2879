package workload

import (
	"hwdp/internal/core"
	"hwdp/internal/fs"
	"hwdp/internal/kernel"
	"hwdp/internal/metrics"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
)

// FIOOpInstr is the IPC-sensitive user work FIO's mmap engine does per
// 4 KiB random read (offset generation, loop control, result checks).
const FIOOpInstr = 8000

// FIOOpFixed is the warmth-insensitive per-op overhead: two clock_gettime
// reads around the I/O, serializing instructions, and the 4 KiB
// bandwidth-bound memcpy. Together with FIOOpInstr this calibrates the
// single-thread Fig. 12 latencies.
const FIOOpFixed = 3200 * sim.Nanosecond

// FIO models `fio --ioengine=mmap --rw=randread --bs=4k` over one mapped
// region: each op picks a page and touches it, taking a demand-paging miss
// when the page is cold. It is the simulator's one mapped-access op: fleet
// tenants and campaign threads run it too, with their own page source,
// sweep, latency sink or no per-op cost.
type FIO struct {
	Sys   *core.System
	Base  pagetable.VAddr
	Pages int
	// WriteFrac makes a fraction of ops writes (randrw mixes). The write
	// bit is drawn after the page, and only when WriteFrac > 0.
	WriteFrac float64
	// Gen, when set, is the page source instead of a uniform pick (fleet
	// and campaign pass a scrambled zipfian).
	Gen KeyGen
	// Sequential walks the region front to back (prefetcher ablation).
	Sequential bool
	// Populate makes each thread sweep the region front to back once
	// before it draws from the page source, so the whole working set is
	// touched (campaign oversubscription).
	Populate bool
	// Cold makes every op touch a not-yet-resident page — the Fig. 12
	// configuration ("repeatedly accesses [the] memory-mapped file randomly
	// so as to incur cold page misses"). All threads share one walk over
	// the file in a scrambled full-cycle order; with the file larger than
	// memory, pages are evicted again before their next visit.
	Cold bool
	// Bare issues the access straight from Op, with no FIOOpFixed stall
	// and no FIOOpInstr user work.
	Bare bool
	// Lat, when set, records each access's latency, from the access to its
	// result, for results at or after LatFrom (a warm-up cut-off).
	Lat     *metrics.Histogram
	LatFrom sim.Time

	cold *coldWalk // the walk shared by all threads in Cold mode
	ops  kernel.ThreadTable[*fioOp]
}

// fioOp carries one thread's in-flight op through its phases. A thread
// runs one op at a time, so each thread reuses one carrier whose phases
// are bound once.
type fioOp struct {
	f     *FIO
	th    *kernel.Thread
	va    pagetable.VAddr
	write bool
	swept int      // ops this thread's in-order sweep has issued
	start sim.Time // when the access was issued
	done  func(error)

	execFn, accessFn func()
	resultFn         func(mmu.Result)
}

// coldWalk visits every page of a region once per cycle in a scrambled
// order (a full-cycle linear walk with a stride co-prime to the size).
type coldWalk struct {
	size, stride, pos int
}

func (c *coldWalk) next() int {
	p := (c.pos * c.stride) % c.size
	c.pos++
	return p
}

// newColdWalk draws the shared walk's stride.
//
//hwdp:coldpath runs once per workload, on its first op
func newColdWalk(pages int, rng *sim.Rand) *coldWalk {
	stride := pages/3 + 1 + rng.Intn(pages/3+1)
	for gcd(stride, pages) != 1 {
		stride++
	}
	return &coldWalk{size: pages, stride: stride}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// NewFIO creates the workload over an already-mapped region.
func NewFIO(sys *core.System, base pagetable.VAddr, pages int) *FIO {
	return &FIO{Sys: sys, Base: base, Pages: pages}
}

// SetupFIO creates and maps a file for the standard FIO scenario.
func SetupFIO(sys *core.System, name string, pages int, flags kernel.MmapFlags) (*FIO, error) {
	base, _, err := sys.MapFile(name, pages, fs.SeededInit(uint64(len(name))), flags)
	if err != nil {
		return nil, err
	}
	return NewFIO(sys, base, pages), nil
}

// pick returns the op's page: the thread's in-order sweep first, then
// the shared cold walk, the page source or a uniform draw.
func (f *FIO) pick(op *fioOp, rng *sim.Rand) int {
	if f.Sequential || (f.Populate && op.swept < f.Pages) {
		p := op.swept % f.Pages
		op.swept++
		return p
	}
	switch {
	case f.Cold:
		if f.cold == nil {
			f.cold = newColdWalk(f.Pages, rng)
		}
		return f.cold.next()
	case f.Gen != nil:
		return int(f.Gen.Next(rng))
	}
	return rng.Intn(f.Pages)
}

// Op implements Workload.
//
//hwdp:hotpath
func (f *FIO) Op(th *kernel.Thread, rng *sim.Rand, done func(error)) {
	op, ok := f.ops.Get(th)
	if !ok {
		op = f.newOp(th)
	}
	op.va = f.Base + pagetable.VAddr(f.pick(op, rng))*4096
	op.write = f.WriteFrac > 0 && rng.Float64() < f.WriteFrac
	op.done = done
	if f.Bare {
		op.access()
		return
	}
	f.Sys.CPU.Stall(th.HW, FIOOpFixed, op.execFn)
}

// newOp builds th's carrier and binds its phases.
//
//hwdp:coldpath runs once per thread, on its first op
func (f *FIO) newOp(th *kernel.Thread) *fioOp {
	op := &fioOp{f: f, th: th}
	op.execFn, op.accessFn, op.resultFn = op.exec, op.access, op.result
	f.ops.Set(th, op)
	return op
}

// exec runs the op's user work after its fixed overhead.
//
//hwdp:hotpath
func (op *fioOp) exec() { op.f.Sys.CPU.UserExec(op.th.HW, FIOOpInstr, op.accessFn) }

// access touches the op's page.
//
//hwdp:hotpath
func (op *fioOp) access() {
	op.start = op.f.Sys.Eng.Now()
	op.f.Sys.K.Access(op.th, op.va, op.write, op.resultFn)
}

// result records the access latency and completes the op.
//
//hwdp:hotpath
func (op *fioOp) result(r mmu.Result) {
	if f := op.f; f.Lat != nil {
		if now := f.Sys.Eng.Now(); now >= f.LatFrom {
			f.Lat.Record(int64(now - op.start))
		}
	}
	done := op.done
	op.done = nil
	done(badAddrErr(r))
}

func badAddrErr(r mmu.Result) error {
	if r.Outcome == mmu.OutcomeBadAddr {
		return errBadAddr
	}
	return nil
}

type simpleErr string

func (e simpleErr) Error() string { return string(e) }

const errBadAddr = simpleErr("workload: access to unmapped address")
