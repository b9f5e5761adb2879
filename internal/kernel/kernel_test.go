package kernel

import (
	"bytes"
	"errors"
	"testing"

	"hwdp/internal/cpu"
	"hwdp/internal/fs"
	"hwdp/internal/mem"
	"hwdp/internal/mmu"
	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/smu"
	"hwdp/internal/ssd"
)

// rig assembles a full machine for kernel tests: 4 physical cores (threads
// 0-3 for workloads, 5=kpted, 6=kpoold, 7=kswapd), one Z-SSD without
// jitter, one file system.
type rig struct {
	eng  *sim.Engine
	cpu  *cpu.CPU
	mem  *mem.Memory
	mmu  *mmu.MMU
	smu  *smu.SMU
	dev  *ssd.Device
	fsys *fs.FS
	k    *Kernel
	p    *Process
	th   *Thread
}

type rigOpt func(*Config)

func withScheme(s Scheme) rigOpt   { return func(c *Config) { c.Scheme = s } }
func noKpoold() rigOpt             { return func(c *Config) { c.DisableKpoold = true } }
func kptedEvery(d sim.Time) rigOpt { return func(c *Config) { c.KptedPeriod = d } }

func newRig(t *testing.T, memBytes uint64, freeQDepth int, opts ...rigOpt) *rig {
	prof := ssd.ZSSD
	prof.JitterFrac = 0
	return newRigProf(t, memBytes, freeQDepth, prof, opts...)
}

func newRigProf(t *testing.T, memBytes uint64, freeQDepth int, prof ssd.Profile, opts ...rigOpt) *rig {
	t.Helper()
	eng := sim.NewEngine()
	c := cpu.New(eng, 4, cpu.DefaultParams())
	memory := mem.New(memBytes)
	fsys := fs.New(0, 0, 1, 1<<22)
	dev := ssd.New(eng, prof, sim.NewRand(3), func(cmd nvme.Command) {
		frame := mem.FrameID(cmd.PRP1 / mem.PageSize)
		switch cmd.Opcode {
		case nvme.OpRead:
			if err := fsys.ReadDMA(memory, frame, cmd.SLBA); err != nil {
				panic(err)
			}
		case nvme.OpWrite:
			if err := fsys.WriteDMA(memory, frame, cmd.SLBA); errors.Is(err, mem.ErrBadFrame) {
				panic(err)
			}
		}
	})
	dev.AddNamespace(nvme.Namespace{ID: 1, Blocks: 1 << 22})
	mm := mmu.New(eng)
	s := smu.New(eng, 0, freeQDepth)
	sqp := nvme.NewQueuePair(1, 2*smu.PMSHREntries)
	s.AttachDevice(0, dev, sqp, 1)
	mm.AttachSMU(s)

	cfg := DefaultConfig(HWDP)
	for _, o := range opts {
		o(&cfg)
	}
	k := New(eng, c, memory, mm, cfg, c.Thread(5), c.Thread(6), c.Thread(7))
	k.AttachStorage(0, 0, dev, fsys)
	k.AttachSMU(s)
	k.Start()
	p := k.NewProcess()
	return &rig{eng: eng, cpu: c, mem: memory, mmu: mm, smu: s, dev: dev,
		fsys: fsys, k: k, p: p, th: k.NewThread(p, 0)}
}

func (r *rig) mmapFile(t *testing.T, name string, pages int, flags MmapFlags) (pagetable.VAddr, *fs.File) {
	t.Helper()
	f, err := r.fsys.Create(name, pages, fs.SeededInit(77))
	if err != nil {
		t.Fatal(err)
	}
	va, err := r.k.Mmap(r.p, 0, 0, f, pagetable.Prot{Write: true, User: true}, flags)
	if err != nil {
		t.Fatal(err)
	}
	return va, f
}

// access runs a single synchronous access and returns outcome + elapsed.
func (r *rig) access(t *testing.T, th *Thread, va pagetable.VAddr, write bool) (mmu.Outcome, sim.Time) {
	t.Helper()
	start := r.eng.Now()
	var out mmu.Outcome = -1
	var end sim.Time
	r.k.Access(th, va, write, func(res mmu.Result) { out, end = res.Outcome, r.eng.Now() })
	for out == -1 && r.eng.Step() {
	}
	if out == -1 {
		t.Fatal("access never completed")
	}
	return out, end - start
}

func TestOSDPMajorFault(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(OSDP))
	va, _ := r.mmapFile(t, "f", 64, MmapFlags{})
	out, lat := r.access(t, r.th, va, false)
	if out != mmu.OutcomeOSFault {
		t.Fatalf("outcome = %v", out)
	}
	// Expected: walk + before-device + device + after-device + re-walk.
	c := r.k.Config().Costs
	want := r.mmu.WalkLatency + c.OSDPBeforeDevice() + ssd.ZSSD.Read4K +
		c.OSDPAfterDevice() + r.mmu.WalkLatency
	if lat < want-sim.Micro(0.5) || lat > want+sim.Micro(1.5) {
		t.Fatalf("latency = %v, want ~%v", lat, want)
	}
	if st := r.k.Stats(); st.MajorFaults != 1 || st.MinorFaults != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Fault handling polluted the thread's microarchitectural state.
	if r.th.HW.Warmth() >= 0.5 {
		t.Fatalf("warmth = %f after kernel fault path", r.th.HW.Warmth())
	}
	// Context switched out and back in.
	if r.th.HW.ContextSwaps != 2 {
		t.Fatalf("context switches = %d", r.th.HW.ContextSwaps)
	}
	// Second access: TLB hit.
	out, lat = r.access(t, r.th, va+8, false)
	if out != mmu.OutcomeTLBHit || lat != 0 {
		t.Fatalf("second access: %v %v", out, lat)
	}
}

func TestHWDPFaultLatency(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(HWDP))
	va, _ := r.mmapFile(t, "f", 64, MmapFlags{Fast: true})
	// PTEs are LBA-augmented at mmap time.
	e, ok := r.p.AS.Table.Lookup(va)
	if !ok || e.State() != pagetable.StateNotPresentLBA {
		t.Fatalf("pte after fast mmap: %v %v", e.State(), ok)
	}
	out, lat := r.access(t, r.th, va, false)
	if out != mmu.OutcomeHW {
		t.Fatalf("outcome = %v", out)
	}
	want := r.mmu.WalkLatency + r.smu.Timing().BeforeDevice() + ssd.ZSSD.Read4K +
		r.smu.Timing().AfterDevice()
	if lat != want {
		t.Fatalf("latency = %v, want %v", lat, want)
	}
	// No kernel instructions on the app thread; no context switch; full
	// stall time instead.
	if r.th.HW.KernelInstr != 0 || r.th.HW.ContextSwaps != 0 {
		t.Fatalf("kernel involvement: instr=%d swaps=%d", r.th.HW.KernelInstr, r.th.HW.ContextSwaps)
	}
	if r.th.HW.StallTime != lat {
		t.Fatalf("stall time = %v, want %v", r.th.HW.StallTime, lat)
	}
	if r.th.HW.Warmth() != 0.5 {
		t.Fatalf("hardware handling polluted warmth: %f", r.th.HW.Warmth())
	}
}

func TestHWDPvsOSDPLatencyReduction(t *testing.T) {
	// The headline claim: ~37% lower demand-paging latency (Fig. 12 at one
	// thread, device-time dominated regime gives ~43% on the raw fault).
	rOS := newRig(t, 64<<20, 512, withScheme(OSDP))
	vaOS, _ := rOS.mmapFile(t, "f", 64, MmapFlags{})
	_, latOS := rOS.access(t, rOS.th, vaOS, false)

	rHW := newRig(t, 64<<20, 512, withScheme(HWDP))
	vaHW, _ := rHW.mmapFile(t, "f", 64, MmapFlags{Fast: true})
	_, latHW := rHW.access(t, rHW.th, vaHW, false)

	red := 1 - float64(latHW)/float64(latOS)
	if red < 0.35 || red > 0.50 {
		t.Fatalf("latency reduction = %.1f%% (OSDP %v, HWDP %v)", red*100, latOS, latHW)
	}
}

func TestSWDPFault(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(SWDP))
	va, _ := r.mmapFile(t, "f", 64, MmapFlags{Fast: true})
	out, lat := r.access(t, r.th, va, false)
	if out != mmu.OutcomeOSFault {
		t.Fatalf("outcome = %v", out)
	}
	c := r.k.Config().Costs
	want := r.mmu.WalkLatency + c.SWOverhead() + ssd.ZSSD.Read4K + r.mmu.WalkLatency
	if lat < want-sim.Micro(0.5) || lat > want+sim.Micro(1.0) {
		t.Fatalf("latency = %v, want ~%v", lat, want)
	}
	if st := r.k.Stats(); st.SWFaults != 1 || st.MajorFaults != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The PTE is left unsynced for kpted, like HWDP.
	e, _ := r.p.AS.Table.Lookup(va)
	if e.State() != pagetable.StateResidentUnsynced {
		t.Fatalf("pte state = %v", e.State())
	}
}

func TestSWDPFasterThanOSDPButSlowerThanHWDP(t *testing.T) {
	lat := func(s Scheme, fast bool) sim.Time {
		r := newRig(t, 64<<20, 512, withScheme(s))
		va, _ := r.mmapFile(t, "f", 64, MmapFlags{Fast: fast})
		_, l := r.access(t, r.th, va, false)
		return l
	}
	os, sw, hw := lat(OSDP, false), lat(SWDP, true), lat(HWDP, true)
	if !(hw < sw && sw < os) {
		t.Fatalf("ordering violated: hw=%v sw=%v os=%v", hw, sw, os)
	}
}

func TestLoadReturnsFileContent(t *testing.T) {
	for _, scheme := range []Scheme{OSDP, SWDP, HWDP} {
		r := newRig(t, 64<<20, 512, withScheme(scheme))
		va, f := r.mmapFile(t, "f", 8, MmapFlags{Fast: true})
		want := make([]byte, 100)
		buf := make([]byte, 100)
		fi := fs.SeededInit(77)
		page := make([]byte, fs.PageBytes)
		fi(2, page)
		copy(want, page[5:105])
		start := r.eng.Now()
		doneAt := sim.Time(-1)
		r.k.Load(r.th, va+2*4096+5, buf, func(res mmu.Result) { doneAt = r.eng.Now() })
		r.eng.RunUntil(start + sim.Second)
		if doneAt < 0 {
			t.Fatalf("%v: load never completed", scheme)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("%v: loaded bytes differ from file content", scheme)
		}
		_ = f
	}
}

func TestLoadCrossesPageBoundary(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(HWDP))
	va, _ := r.mmapFile(t, "f", 4, MmapFlags{Fast: true})
	buf := make([]byte, 8192)
	ok := false
	r.k.Load(r.th, va+100, buf, func(mmu.Result) { ok = true })
	r.eng.RunUntil(sim.Second)
	if !ok {
		t.Fatal("cross-page load hung")
	}
	fi := fs.SeededInit(77)
	p0 := make([]byte, 4096)
	p1 := make([]byte, 4096)
	p2 := make([]byte, 4096)
	fi(0, p0)
	fi(1, p1)
	fi(2, p2)
	want := append(append(append([]byte{}, p0[100:]...), p1...), p2[:100+8192-2*4096]...)
	_ = p2
	if !bytes.Equal(buf, want[:8192]) {
		t.Fatal("cross-page content wrong")
	}
}

func TestStoreThenLoadRoundTrip(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(HWDP))
	va, _ := r.mmapFile(t, "f", 4, MmapFlags{Fast: true})
	data := []byte("hardware demand paging")
	done := false
	r.k.Store(r.th, va+1000, data, func(mmu.Result) {
		buf := make([]byte, len(data))
		r.k.Load(r.th, va+1000, buf, func(mmu.Result) {
			if !bytes.Equal(buf, data) {
				t.Error("store/load mismatch")
			}
			done = true
		})
	})
	r.eng.RunUntil(sim.Second)
	if !done {
		t.Fatal("hung")
	}
}

func TestKptedSyncsMetadata(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(HWDP), kptedEvery(5*sim.Millisecond))
	va, _ := r.mmapFile(t, "f", 16, MmapFlags{Fast: true})
	r.access(t, r.th, va, false)
	e, _ := r.p.AS.Table.Lookup(va)
	if e.State() != pagetable.StateResidentUnsynced {
		t.Fatalf("pre-kpted state = %v", e.State())
	}
	r.eng.RunUntil(r.eng.Now() + 20*sim.Millisecond)
	e, _ = r.p.AS.Table.Lookup(va)
	if e.State() != pagetable.StateResident {
		t.Fatalf("post-kpted state = %v", e.State())
	}
	st := r.k.Stats()
	if st.KptedSyncs != 1 || st.KptedRuns == 0 {
		t.Fatalf("kpted stats = %+v", st)
	}
	// kpted ran on its own hardware thread, not the app's.
	if r.cpu.Thread(5).KernelInstr == 0 {
		t.Fatal("kpted charged no kernel time")
	}
}

func TestFreeQueueEmptyBouncesToOSAndRefills(t *testing.T) {
	r := newRig(t, 64<<20, 4, withScheme(HWDP), noKpoold())
	va, _ := r.mmapFile(t, "f", 32, MmapFlags{Fast: true})
	// Drain the 3-entry queue (depth 4 ring holds 3).
	for i := 0; i < 3; i++ {
		out, _ := r.access(t, r.th, va+pagetable.VAddr(i*4096), false)
		if out != mmu.OutcomeHW {
			t.Fatalf("miss %d: %v", i, out)
		}
	}
	// Fourth miss: queue empty → exception → OS handles + refills.
	out, _ := r.access(t, r.th, va+3*4096, false)
	if out != mmu.OutcomeOSFault {
		t.Fatalf("bounced miss outcome = %v", out)
	}
	st := r.k.Stats()
	if st.HWBounceFaults != 1 || st.FaultRefills != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// After the synchronous refill, hardware handling works again.
	out, _ = r.access(t, r.th, va+4*4096, false)
	if out != mmu.OutcomeHW {
		t.Fatalf("post-refill outcome = %v", out)
	}
}

func TestKpooldRefillsInBackground(t *testing.T) {
	r := newRig(t, 64<<20, 64, withScheme(HWDP))
	va, _ := r.mmapFile(t, "f", 128, MmapFlags{Fast: true})
	for i := 0; i < 40; i++ {
		r.access(t, r.th, va+pagetable.VAddr(i*4096), false)
	}
	// Let kpoold run a few periods.
	r.eng.RunUntil(r.eng.Now() + 20*sim.Millisecond)
	st := r.k.Stats()
	if st.KpooldFrames == 0 {
		t.Fatalf("kpoold refilled nothing: %+v", st)
	}
	if st.HWBounceFaults != 0 {
		t.Fatalf("bounces despite kpoold: %+v", st)
	}
}

func TestEvictionReAugmentsFastPTEs(t *testing.T) {
	// Memory: 128 frames. File: 256 pages. Touching everything forces
	// eviction; evicted fast-mmap PTEs must carry the LBA again.
	r := newRig(t, 128*4096, 16, withScheme(HWDP), kptedEvery(2*sim.Millisecond))
	va, _ := r.mmapFile(t, "big", 256, MmapFlags{Fast: true})
	for i := 0; i < 256; i++ {
		out, _ := r.access(t, r.th, va+pagetable.VAddr(i*4096), false)
		if out == mmu.OutcomeBadAddr {
			t.Fatalf("access %d failed", i)
		}
	}
	r.eng.RunUntil(r.eng.Now() + 50*sim.Millisecond)
	st := r.k.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions: %+v", st)
	}
	lba, resident := 0, 0
	for i := 0; i < 256; i++ {
		e, ok := r.p.AS.Table.Lookup(va + pagetable.VAddr(i*4096))
		if !ok {
			continue
		}
		switch e.State() {
		case pagetable.StateNotPresentLBA:
			lba++
		case pagetable.StateResident, pagetable.StateResidentUnsynced:
			resident++
		case pagetable.StateNotPresentOS:
			t.Fatalf("page %d lost its LBA augmentation", i)
		}
	}
	if lba == 0 {
		t.Fatal("no evicted page was re-augmented")
	}
	// Evicted pages can be faulted back by hardware.
	for i := 0; i < 256; i++ {
		e, _ := r.p.AS.Table.Lookup(va + pagetable.VAddr(i*4096))
		if e.State() == pagetable.StateNotPresentLBA {
			out, _ := r.access(t, r.th, va+pagetable.VAddr(i*4096), false)
			if out != mmu.OutcomeHW && out != mmu.OutcomeOSFault {
				t.Fatalf("refault outcome = %v", out)
			}
			break
		}
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	r := newRig(t, 128*4096, 16, withScheme(HWDP), kptedEvery(2*sim.Millisecond))
	va, _ := r.mmapFile(t, "big", 256, MmapFlags{Fast: true})
	// Dirty page 0 with known bytes.
	marker := []byte("persist me through eviction")
	ok := false
	r.k.Store(r.th, va+64, marker, func(mmu.Result) { ok = true })
	r.eng.RunUntil(r.eng.Now() + sim.Second)
	if !ok {
		t.Fatal("store hung")
	}
	// Force page 0 out by touching everything else.
	for i := 1; i < 256; i++ {
		r.access(t, r.th, va+pagetable.VAddr(i*4096), false)
	}
	r.eng.RunUntil(r.eng.Now() + 100*sim.Millisecond)
	if e, _ := r.p.AS.Table.Lookup(va); e.Present() {
		t.Skip("page 0 survived eviction pressure; clock kept it")
	}
	if r.k.Stats().Writebacks == 0 {
		t.Fatal("dirty page evicted without writeback")
	}
	// Fault it back: content must match.
	buf := make([]byte, len(marker))
	got := false
	r.k.Load(r.th, va+64, buf, func(mmu.Result) { got = true })
	r.eng.RunUntil(r.eng.Now() + sim.Second)
	if !got || !bytes.Equal(buf, marker) {
		t.Fatalf("content lost across dirty eviction: %q", buf)
	}
}

func TestMinorFaultOnSharedPage(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(OSDP))
	f, _ := r.fsys.Create("shared", 8, fs.SeededInit(1))
	va1, _ := r.k.Mmap(r.p, 0, 0, f, pagetable.Prot{User: true}, MmapFlags{})
	va2, _ := r.k.Mmap(r.p, 0, 0, f, pagetable.Prot{User: true}, MmapFlags{})
	r.access(t, r.th, va1, false) // major
	out, lat := r.access(t, r.th, va2, false)
	if out != mmu.OutcomeOSFault {
		t.Fatalf("outcome = %v", out)
	}
	if lat > sim.Micro(5) {
		t.Fatalf("minor fault took %v (device involved?)", lat)
	}
	st := r.k.Stats()
	if st.MajorFaults != 1 || st.MinorFaults != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Both mappings point at the same frame.
	e1, _ := r.p.AS.Table.Lookup(va1)
	e2, _ := r.p.AS.Table.Lookup(va2)
	if e1.PFN() != e2.PFN() {
		t.Fatal("shared page mapped to different frames")
	}
}

func TestMunmapBarriersAndFrees(t *testing.T) {
	// kpoold disabled so frame accounting is exact (it would otherwise top
	// up the prefetch-buffer slack from the allocator mid-test).
	r := newRig(t, 64<<20, 512, withScheme(HWDP), kptedEvery(sim.Millisecond), noKpoold())
	va, _ := r.mmapFile(t, "f", 32, MmapFlags{Fast: true})
	for i := 0; i < 8; i++ {
		r.access(t, r.th, va+pagetable.VAddr(i*4096), false)
	}
	freeBefore := r.mem.FreeFrames()
	done := false
	r.k.Munmap(r.th, va, func() { done = true })
	r.eng.RunUntil(r.eng.Now() + sim.Second)
	if !done {
		t.Fatal("munmap hung")
	}
	if r.mem.FreeFrames() != freeBefore+8 {
		t.Fatalf("frames not freed: before=%d after=%d", freeBefore, r.mem.FreeFrames())
	}
	out, _ := r.access(t, r.th, va, false)
	if out != mmu.OutcomeBadAddr {
		t.Fatalf("access after munmap = %v", out)
	}
	if st := r.k.Stats(); st.MunmapPages != 32 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMunmapWaitsForOutstandingMisses(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(HWDP))
	va, _ := r.mmapFile(t, "f", 8, MmapFlags{Fast: true})
	th2 := r.k.NewThread(r.p, 2)
	// Start a hardware miss and munmap while it is in flight.
	var missDone, unmapDone sim.Time = -1, -1
	r.k.Access(th2, va, false, func(mmu.Result) { missDone = r.eng.Now() })
	r.eng.Post(sim.Micro(1), func() {
		r.k.Munmap(r.th, va, func() { unmapDone = r.eng.Now() })
	})
	r.eng.RunUntil(sim.Second)
	if missDone < 0 || unmapDone < 0 {
		t.Fatalf("hung: miss=%v unmap=%v", missDone, unmapDone)
	}
	if unmapDone < missDone {
		t.Fatal("munmap completed before the outstanding miss (race)")
	}
}

func TestMsyncWritesBackDirtyPages(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(HWDP), kptedEvery(sim.Millisecond))
	va, _ := r.mmapFile(t, "f", 8, MmapFlags{Fast: true})
	okStore := false
	r.k.Store(r.th, va, []byte("dirty data"), func(mmu.Result) { okStore = true })
	r.eng.RunUntil(r.eng.Now() + 100*sim.Millisecond)
	if !okStore {
		t.Fatal("store hung")
	}
	writesBefore := r.fsys.Writes()
	done := false
	r.k.Msync(r.th, va, func() { done = true })
	r.eng.RunUntil(r.eng.Now() + sim.Second)
	if !done {
		t.Fatal("msync hung")
	}
	if r.fsys.Writes() != writesBefore+1 {
		t.Fatalf("writes = %d, want %d", r.fsys.Writes(), writesBefore+1)
	}
	e, _ := r.p.AS.Table.Lookup(va)
	if e.Dirty() {
		t.Fatal("dirty bit survived msync")
	}
	if e.State() == pagetable.StateResidentUnsynced {
		t.Fatal("msync left metadata unsynced")
	}
}

func TestFsync(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(HWDP))
	va, f := r.mmapFile(t, "f", 4, MmapFlags{Fast: true})
	ok := false
	r.k.Store(r.th, va, []byte("x"), func(mmu.Result) {
		r.k.Fsync(r.th, f, func() { ok = true })
	})
	r.eng.RunUntil(sim.Second)
	if !ok {
		t.Fatal("fsync hung")
	}
	if r.fsys.Writes() == 0 {
		t.Fatal("fsync wrote nothing")
	}
}

func TestForkRevertsLBAPTEs(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(HWDP))
	va, _ := r.mmapFile(t, "f", 16, MmapFlags{Fast: true})
	r.access(t, r.th, va, false) // one resident-unsynced PTE
	child := r.k.Fork(r.p)
	// Parent: no LBA-augmented or unsynced PTEs remain.
	for i := 0; i < 16; i++ {
		e, ok := r.p.AS.Table.Lookup(va + pagetable.VAddr(i*4096))
		if !ok {
			continue
		}
		if s := e.State(); s == pagetable.StateNotPresentLBA || s == pagetable.StateResidentUnsynced {
			t.Fatalf("page %d still %v after fork", i, s)
		}
	}
	// Child faults go through the OS even though the kernel runs HWDP.
	thC := r.k.NewThread(child, 2)
	out, _ := r.access(t, thC, va+4096, false)
	if out != mmu.OutcomeOSFault {
		t.Fatalf("child fault outcome = %v", out)
	}
	// Parent resident page is shared with the child via a minor fault.
	out, _ = r.access(t, thC, va, false)
	if out != mmu.OutcomeOSFault {
		t.Fatalf("child shared-page outcome = %v", out)
	}
	if st := r.k.Stats(); st.Forks != 1 || st.MinorFaults == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRemapPatchesLBAPTEs(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(HWDP))
	va, f := r.mmapFile(t, "f", 8, MmapFlags{Fast: true})
	oldE, _ := r.p.AS.Table.Lookup(va + 3*4096)
	nb, err := r.fsys.Remap(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	newE, _ := r.p.AS.Table.Lookup(va + 3*4096)
	if newE.Block() != nb {
		t.Fatalf("PTE block = %v, want %v", newE.Block(), nb)
	}
	if newE.Block() == oldE.Block() {
		t.Fatal("remap did not change the PTE")
	}
	if r.k.Stats().RemapPatchedPTE != 1 {
		t.Fatal("patch not counted")
	}
	// Faulting the remapped page loads the (preserved) content.
	buf := make([]byte, 16)
	want := make([]byte, fs.PageBytes)
	fs.SeededInit(77)(3, want)
	ok := false
	r.k.Load(r.th, va+3*4096, buf, func(mmu.Result) { ok = true })
	r.eng.RunUntil(sim.Second)
	if !ok || !bytes.Equal(buf, want[:16]) {
		t.Fatal("remapped page content wrong")
	}
}

func TestPopulatePreloadsEverything(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(OSDP))
	va, _ := r.mmapFile(t, "f", 64, MmapFlags{Populate: true})
	for i := 0; i < 64; i++ {
		out, lat := r.access(t, r.th, va+pagetable.VAddr(i*4096), false)
		if out == mmu.OutcomeOSFault || lat > sim.Micro(1) {
			t.Fatalf("access %d faulted (%v, %v) despite MAP_POPULATE", i, out, lat)
		}
	}
	if st := r.k.Stats(); st.MajorFaults != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSchemeString(t *testing.T) {
	if OSDP.String() != "OSDP" || SWDP.String() != "SW-only" || HWDP.String() != "HWDP" || Scheme(9).String() != "?" {
		t.Fatal("scheme strings")
	}
}

func TestCostsCalibration(t *testing.T) {
	c := DefaultCosts()
	dev := float64(ssd.ZSSD.Read4K)
	over := float64(c.OSDPOverhead())
	frac := over / dev
	// Fig. 3: aggregated overhead ≈ 76.3% of device time.
	if frac < 0.72 || frac > 0.84 {
		t.Fatalf("OSDP overhead = %.1f%% of device time", frac*100)
	}
	// Fig. 11(a): before/after reductions vs HWDP ≈ 2.38us / 6.16us.
	hwBefore := smuDefaultBefore()
	beforeRed := (c.OSDPBeforeDevice() - hwBefore).Micros()
	if beforeRed < 2.0 || beforeRed > 2.8 {
		t.Fatalf("before-device reduction = %.2fus", beforeRed)
	}
	afterRed := (c.OSDPAfterDevice() - smuDefaultAfter()).Micros()
	if afterRed < 5.7 || afterRed > 6.6 {
		t.Fatalf("after-device reduction = %.2fus", afterRed)
	}
	// Fig. 17: SW-only overhead ≈ 1.9us.
	if sw := c.SWOverhead().Micros(); sw < 1.6 || sw > 2.2 {
		t.Fatalf("SW overhead = %.2fus", sw)
	}
}

func smuDefaultBefore() sim.Time { return smu.DefaultTiming().BeforeDevice() }
func smuDefaultAfter() sim.Time  { return smu.DefaultTiming().AfterDevice() }
