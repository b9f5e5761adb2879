package kernel

import (
	"runtime"
	"testing"

	"hwdp/internal/mem"
	"hwdp/internal/mmu"
	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
)

// Allocation and event-heap pins for the OS side of the access path. The
// access gate, the OS block layer, the fault records and the page
// replacement carriers are pooled; these pins keep a per-access, per-I/O
// or per-eviction closure from creeping back. AllocsPerRun warms the pools
// with a first run before measuring.

func TestAccessTLBHitAllocationBudget(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(OSDP))
	va, _ := r.mmapFile(t, "f", 4, MmapFlags{})
	if out, _ := r.access(t, r.th, va, false); out != mmu.OutcomeOSFault {
		t.Fatalf("first access: %v, want an OS fault", out)
	}
	done := false
	complete := func(mmu.Result) { done = true }
	got := testing.AllocsPerRun(1000, func() {
		done = false
		r.k.Access(r.th, va, false, complete)
		if !done {
			t.Fatal("TLB hit did not complete synchronously")
		}
	})
	if got != 0 {
		t.Fatalf("Access on a TLB hit allocates %.1f objects/op, want 0", got)
	}
}

func TestBlockIORoundTripAllocationBudget(t *testing.T) {
	// submitIORetry -> doorbell -> device -> completion interrupt ->
	// osInterrupt -> done, with the default block-layer timeout armed and
	// canceled on every I/O.
	r := newRig(t, 64<<20, 512, withScheme(OSDP))
	if r.k.cfg.BlockTimeout == 0 {
		t.Fatal("the default config must arm the block-layer timeout")
	}
	_, f := r.mmapFile(t, "f", 4, MmapFlags{})
	blk, err := r.fsys.Block(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := r.mem.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	st := r.k.storageFor(blk)
	status := -1
	complete := func(s uint16) { status = int(s) }
	got := testing.AllocsPerRun(500, func() {
		status = -1
		r.k.submitIORetry(st, r.th.HW, nvme.OpRead, blk.LBA, frame, nil, complete)
		for status == -1 && r.eng.Step() {
		}
		if status != int(nvme.StatusSuccess) {
			t.Fatalf("read completed with status %d", status)
		}
	})
	if got != 0 {
		t.Fatalf("block I/O round trip allocates %.1f objects/op, want 0", got)
	}
	if n := r.k.Stats().BlockTimeouts; n != 0 {
		t.Fatalf("%d block-layer timeouts fired", n)
	}
}

// faultRuns is how many faults each fault-path pin measures, after
// AllocsPerRun's warm-up fault; every faulted page sits in one page-table
// leaf, so only the warm-up builds table nodes.
const faultRuns = 100

// faultAllocs pins the fault path: each run accesses the next page of va
// from every thread in ths at once and runs the machine until all the
// accesses end. It returns AllocsPerRun's allocations per run.
func faultAllocs(t *testing.T, r *rig, va pagetable.VAddr, ths ...*Thread) float64 {
	t.Helper()
	page, pending := 0, 0
	complete := func(mmu.Result) { pending-- }
	return testing.AllocsPerRun(faultRuns, func() {
		pva := va + pagetable.VAddr(page)*mem.PageSize
		page++
		pending = len(ths)
		for _, th := range ths {
			r.k.Access(th, pva, false, complete)
		}
		for pending > 0 && r.eng.Step() {
		}
		if pending > 0 {
			t.Fatalf("page %d: %d accesses never completed", page-1, pending)
		}
	})
}

func TestFaultPathAllocationBudget(t *testing.T) {
	const faults = faultRuns + 1
	t.Run("OSDP/anon-first-touch", func(t *testing.T) {
		r := newRig(t, 64<<20, 512, withScheme(OSDP))
		va := r.mmapAnon(t, faults, false)
		if got := faultAllocs(t, r, va, r.th); got != 0 {
			t.Fatalf("anonymous first touch allocates %.1f objects/fault, want 0", got)
		}
		if st := r.k.Stats(); st.MinorFaults != faults || st.MajorFaults != 0 {
			t.Fatalf("stats = %+v, want %d minor faults", st, faults)
		}
	})
	t.Run("OSDP/page-lock-wait", func(t *testing.T) {
		r := newRig(t, 64<<20, 512, withScheme(OSDP))
		va, _ := r.mmapFile(t, "f", faults, MmapFlags{})
		got := faultAllocs(t, r, va, r.th, r.k.NewThread(r.p, 2))
		if got != 0 {
			t.Fatalf("a major fault and a wait on its page lock allocate %.1f objects/run, want 0", got)
		}
		// One read per page: the second thread waited on the first's lock.
		if st := r.k.Stats(); st.MajorFaults != faults || r.dev.Stats().Reads != faults {
			t.Fatalf("stats = %+v, %d device reads, want %d major faults and reads", st, r.dev.Stats().Reads, faults)
		}
	})
	t.Run("SW-only/io-miss", func(t *testing.T) {
		r := newRig(t, 64<<20, 512, withScheme(SWDP))
		va, _ := r.mmapFile(t, "f", faults, MmapFlags{Fast: true})
		if got := faultAllocs(t, r, va, r.th); got != 0 {
			t.Fatalf("SW-only miss allocates %.1f objects/fault, want 0", got)
		}
		if st := r.k.Stats(); st.SWFaults != faults || r.dev.Stats().Reads != faults {
			t.Fatalf("stats = %+v, %d device reads, want %d SW faults and reads", st, r.dev.Stats().Reads, faults)
		}
	})
	t.Run("SW-only/zero-fill", func(t *testing.T) {
		r := newRig(t, 64<<20, 512, withScheme(SWDP))
		va := r.mmapAnon(t, faults, true)
		if got := faultAllocs(t, r, va, r.th); got != 0 {
			t.Fatalf("SW-only zero-fill allocates %.1f objects/fault, want 0", got)
		}
		if st := r.k.Stats(); st.SWFaults != faults || r.dev.Stats().Reads != 0 {
			t.Fatalf("stats = %+v, %d device reads, want %d SW faults and no read", st, r.dev.Stats().Reads, faults)
		}
	})
}

func TestOSDPFaultsLeaveNoCanceledTimers(t *testing.T) {
	// Every OS read arms the 10 ms block-layer timeout and cancels it at
	// completion. Canceled timers leave the event heap at once, so after
	// many back-to-back major faults the heap holds only live events: the
	// kernel daemons' ticks and the odd in-flight completion.
	const faults = 1000
	r := newRig(t, 64<<20, 512, withScheme(OSDP))
	va, _ := r.mmapFile(t, "f", faults, MmapFlags{})
	for i := 0; i < faults; i++ {
		if out, _ := r.access(t, r.th, va+pagetable.VAddr(i)*4096, false); out != mmu.OutcomeOSFault {
			t.Fatalf("access %d: %v, want an OS fault", i, out)
		}
	}
	if n := r.k.Stats().MajorFaults; n != faults {
		t.Fatalf("major faults = %d, want %d", n, faults)
	}
	if n := r.eng.Pending(); n >= 64 {
		t.Fatalf("event heap holds %d events after %d faults, want < 64", n, faults)
	}
}

// Steady-state OSDP faults on a full memory: a sequential sweep over a
// file four times the size of memory misses on every access, so each fault
// takes a frame that kswapd's clock reclaim freed by evicting a page. Every
// other access writes, so the evictions mix clean frees with dirty
// writebacks.
const evictFrames, evictFilePages = 1024, 4096

// evictRig builds the full-memory OSDP machine and returns a function that
// accesses page i%evictFilePages of the file, writing on even i.
func evictRig(tb testing.TB) (*rig, func(i int)) {
	r := newRig(tb, evictFrames*mem.PageSize, 512, withScheme(OSDP))
	va, _ := r.mmapFile(tb, "f", evictFilePages, MmapFlags{})
	done := false
	complete := func(mmu.Result) { done = true }
	access := func(i int) {
		done = false
		r.k.Access(r.th, va+pagetable.VAddr(i%evictFilePages)*mem.PageSize, i%2 == 0, complete)
		for !done && r.eng.Step() {
		}
		if !done {
			tb.Fatalf("access %d never completed", i)
		}
	}
	return r, access
}

func TestReclaimAllocationBudget(t *testing.T) {
	r, access := evictRig(t)
	passes := 0
	kswapdDone := r.k.kswapdDoneFn
	r.k.kswapdDoneFn = func(freed int) {
		passes++
		kswapdDone(freed)
	}
	// Eight warm-up sweeps fill memory, build every page-table node, write
	// every dirty block once (the file system's block map grows on a
	// block's first write) and grow each free list and queue to its
	// high-water mark.
	for i := 0; i < 8*evictFilePages; i++ {
		access(i)
	}
	before, passesBefore := r.k.Stats(), passes
	// Four measured sweeps. The pin is the sweeps' total malloc count, not
	// a per-fault average: an allocation made once per dirty writeback or
	// once per kswapd pass averages well below one per fault and would
	// round away. The budget is a small fraction of the pass count, not
	// zero, because the block layer's pending-CID map is a Go map under
	// insert/delete churn and may rehash in place.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < 4*evictFilePages; i++ {
		access(i)
	}
	runtime.ReadMemStats(&ms1)
	mallocs := ms1.Mallocs - ms0.Mallocs
	after := r.k.Stats()
	faults := after.MajorFaults - before.MajorFaults
	evictions := after.Evictions - before.Evictions
	writebacks := after.Writebacks - before.Writebacks
	passes -= passesBefore
	if faults != 4*evictFilePages {
		t.Fatalf("major faults = %d, want %d: some access hit", faults, 4*evictFilePages)
	}
	if evictions < faults-evictFrames || writebacks < evictions/4 || writebacks == evictions {
		t.Fatalf("%d faults made %d evictions (%d dirty): want about one eviction per fault, clean and dirty",
			faults, evictions, writebacks)
	}
	if passes < 64 {
		t.Fatalf("%d kswapd passes, want at least 64", passes)
	}
	if budget := uint64(passes) / 8; mallocs > budget {
		t.Fatalf("%d faults, %d evictions (%d dirty) and %d kswapd passes made %d mallocs, want at most %d",
			faults, evictions, writebacks, passes, mallocs, budget)
	}
	t.Logf("%d faults, %d evictions (%d dirty), %d kswapd passes: %d mallocs", faults, evictions, writebacks, passes, mallocs)
}

// BenchmarkMajorFaultEvict is one steady-state OSDP major fault on a full
// memory, with its share of the kswapd eviction that freed its frame.
func BenchmarkMajorFaultEvict(b *testing.B) {
	_, access := evictRig(b)
	for i := 0; i < 2*evictFilePages; i++ {
		access(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		access(i)
	}
}
