package workload

import (
	"hwdp/internal/core"
	"hwdp/internal/fs"
	"hwdp/internal/kernel"
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
// file: each op picks a uniformly random page and touches it, taking a
// demand-paging miss when the page is cold.
type FIO struct {
	Sys     *core.System
	Base    pagetable.VAddr
	Pages   int
	OpInstr uint64
	// WriteFrac makes a fraction of ops writes (randrw mixes).
	WriteFrac float64
	// CopyData routes ops through the data-copying Load path instead of a
	// bare access (slower to simulate; used by integrity tests).
	CopyData bool
	// Sequential walks the file front to back (prefetcher ablation).
	Sequential bool
	// Cold makes every op touch a not-yet-resident page — the Fig. 12
	// configuration ("repeatedly accesses [the] memory-mapped file randomly
	// so as to incur cold page misses"). Threads walk disjoint page
	// partitions in a scrambled full-cycle order; with the file larger
	// than memory, pages are evicted again before their next visit.
	Cold bool

	cold *coldWalk                       // the walk shared by all threads in Cold mode
	seqs kernel.ThreadTable[*coldWalk]   // each thread's walk in Sequential mode
	bufs kernel.ThreadTable[*[4096]byte] // each thread's copy buffer in CopyData mode
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
	done  func(error)

	execFn, accessFn func()
	resultFn         func(mmu.Result)
}

// coldWalk visits every page of a partition once per cycle in a scrambled
// order (a full-cycle linear walk with a stride co-prime to the size).
type coldWalk struct {
	offset, size, stride, pos int
}

func (c *coldWalk) next() int {
	p := c.offset + (c.pos*c.stride)%c.size
	c.pos++
	return p
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// NewFIO creates the workload over an already-mapped region.
func NewFIO(sys *core.System, base pagetable.VAddr, pages int) *FIO {
	return &FIO{Sys: sys, Base: base, Pages: pages, OpInstr: FIOOpInstr}
}

// SetupFIO creates and maps a file for the standard FIO scenario.
func SetupFIO(sys *core.System, name string, pages int, flags kernel.MmapFlags) (*FIO, error) {
	base, _, err := sys.MapFile(name, pages, fs.SeededInit(uint64(len(name))), flags)
	if err != nil {
		return nil, err
	}
	return NewFIO(sys, base, pages), nil
}

func (f *FIO) pick(th *kernel.Thread, rng *sim.Rand) int {
	if f.Sequential {
		w, ok := f.seqs.Get(th)
		if !ok {
			w = &coldWalk{offset: 0, size: f.Pages, stride: 1}
			f.seqs.Set(th, w)
		}
		return w.next()
	}
	if !f.Cold {
		return rng.Intn(f.Pages)
	}
	// One shared full-cycle walk over the whole file: every page is
	// visited exactly once per cycle (threads interleave on it), and with
	// the file larger than memory a page is evicted before its next visit.
	if f.cold == nil {
		stride := f.Pages/3 + 1 + rng.Intn(f.Pages/3+1)
		for gcd(stride, f.Pages) != 1 {
			stride++
		}
		f.cold = &coldWalk{offset: 0, size: f.Pages, stride: stride}
	}
	return f.cold.next()
}

// Op implements Workload.
func (f *FIO) Op(th *kernel.Thread, rng *sim.Rand, done func(error)) {
	page := f.pick(th, rng)
	op, ok := f.ops.Get(th)
	if !ok {
		op = f.newOp(th)
	}
	op.va = f.Base + pagetable.VAddr(page)*4096
	op.write = f.WriteFrac > 0 && rng.Float64() < f.WriteFrac
	op.done = done
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
func (op *fioOp) exec() { op.f.Sys.CPU.UserExec(op.th.HW, op.f.OpInstr, op.accessFn) }

// access touches the op's page.
func (op *fioOp) access() {
	f := op.f
	if f.CopyData {
		buf, ok := f.bufs.Get(op.th)
		if !ok {
			buf = new([4096]byte)
			f.bufs.Set(op.th, buf)
		}
		f.Sys.K.Load(op.th, op.va, buf[:], op.resultFn)
		return
	}
	f.Sys.K.Access(op.th, op.va, op.write, op.resultFn)
}

// result completes the op.
//
//hwdp:hotpath
func (op *fioOp) result(r mmu.Result) {
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
