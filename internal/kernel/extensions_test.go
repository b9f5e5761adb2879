package kernel

// Tests for the paper's Section V extensions: demand paging for anonymous
// pages (first-touch zero-fill without I/O, accelerated swap-in), the
// long-latency-I/O stall timeout, and multi-device SMU routing.

import (
	"bytes"
	"testing"

	"hwdp/internal/fs"
	"hwdp/internal/mem"
	"hwdp/internal/mmu"
	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/ssd"
)

func withStallTimeout(d sim.Time) rigOpt { return func(c *Config) { c.StallTimeout = d } }

func (r *rig) mmapAnon(t *testing.T, pages int, fast bool) pagetable.VAddr {
	t.Helper()
	va, err := r.k.MmapAnon(r.p, 0, 0, pages, pagetable.Prot{Write: true, User: true}, fast)
	if err != nil {
		t.Fatal(err)
	}
	return va
}

func TestAnonFirstTouchHWDPBypassesIO(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(HWDP))
	va := r.mmapAnon(t, 16, true)
	e, ok := r.p.AS.Table.Lookup(va)
	if !ok || e.State() != pagetable.StateNotPresentLBA {
		t.Fatalf("anon PTE state = %v", e.State())
	}
	if e.Block().LBA != pagetable.AnonFirstTouch {
		t.Fatalf("anon PTE LBA = %d", e.Block().LBA)
	}
	readsBefore := r.dev.Stats().Reads
	out, lat := r.access(t, r.th, va, true)
	if out != mmu.OutcomeHW {
		t.Fatalf("outcome = %v", out)
	}
	if r.dev.Stats().Reads != readsBefore {
		t.Fatal("first-touch anonymous miss performed device I/O")
	}
	// Handled in nanoseconds, not microseconds: no device time.
	if lat > sim.Micro(1) {
		t.Fatalf("zero-fill took %v", lat)
	}
	if st := r.smu.Stats(); st.AnonZeroFill != 1 {
		t.Fatalf("smu stats = %+v", st)
	}
	// The frame reads back as zeros.
	buf := make([]byte, 64)
	got := false
	r.k.Load(r.th, va, buf, func(mmu.Result) { got = true })
	r.eng.RunUntil(r.eng.Now() + sim.Second)
	if !got || !bytes.Equal(buf, make([]byte, 64)) {
		t.Fatal("anonymous page not zero-filled")
	}
}

func TestAnonOSDPZeroFillIsMinor(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(OSDP))
	va := r.mmapAnon(t, 8, true) // fast ignored under OSDP
	out, lat := r.access(t, r.th, va, true)
	if out != mmu.OutcomeOSFault {
		t.Fatalf("outcome = %v", out)
	}
	if lat > sim.Micro(5) {
		t.Fatalf("OSDP zero-fill took %v (device involved?)", lat)
	}
	st := r.k.Stats()
	if st.MinorFaults != 1 || st.MajorFaults != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAnonSWDPBypassesIO(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(SWDP))
	va := r.mmapAnon(t, 8, true)
	readsBefore := r.dev.Stats().Reads
	out, lat := r.access(t, r.th, va, true)
	if out != mmu.OutcomeOSFault {
		t.Fatalf("outcome = %v", out)
	}
	if r.dev.Stats().Reads != readsBefore {
		t.Fatal("SW-emulated SMU did I/O for first-touch anon page")
	}
	if lat > sim.Micro(3) {
		t.Fatalf("sw zero-fill took %v", lat)
	}
	if r.k.Stats().SWFaults != 1 {
		t.Fatalf("stats = %+v", r.k.Stats())
	}
}

func TestAnonSwapOutAndAcceleratedSwapIn(t *testing.T) {
	// Small memory, big anonymous region: dirtied pages get evicted to the
	// swap backing; refaults read them back via the SMU with the real swap
	// LBA in the PTE ("accelerating swap-in of anonymous pages is
	// straightforward").
	r := newRig(t, 96*4096, 16, withScheme(HWDP), kptedEvery(sim.Millisecond))
	va := r.mmapAnon(t, 192, true)
	marker := []byte("swap me out and back")
	ok := false
	r.k.Store(r.th, va+100, marker, func(mmu.Result) { ok = true })
	r.eng.RunUntil(r.eng.Now() + 10*sim.Millisecond)
	if !ok {
		t.Fatal("store hung")
	}
	// Dirty the rest to force page 0 out.
	for i := 1; i < 192; i++ {
		done := false
		r.k.Store(r.th, va+pagetable.VAddr(i*4096), []byte{byte(i)}, func(mmu.Result) { done = true })
		r.eng.RunUntil(r.eng.Now() + sim.Second)
		if !done {
			t.Fatalf("store %d hung", i)
		}
	}
	r.eng.RunUntil(r.eng.Now() + 50*sim.Millisecond)
	e, _ := r.p.AS.Table.Lookup(va)
	if e.Present() {
		t.Skip("page 0 survived eviction pressure")
	}
	if e.State() != pagetable.StateNotPresentLBA {
		t.Fatalf("evicted anon PTE state = %v", e.State())
	}
	if e.Block().LBA == pagetable.AnonFirstTouch {
		t.Fatal("dirty anon page evicted without a swap LBA")
	}
	if r.k.Stats().Writebacks == 0 {
		t.Fatal("no swap writeback")
	}
	// Refault: content must come back from swap, via the hardware path.
	buf := make([]byte, len(marker))
	got := false
	r.k.Load(r.th, va+100, buf, func(r mmu.Result) { got = true })
	r.eng.RunUntil(r.eng.Now() + sim.Second)
	if !got || !bytes.Equal(buf, marker) {
		t.Fatalf("swap-in returned %q", buf)
	}
}

func TestAnonCleanEvictionRefaultsAsZeroFill(t *testing.T) {
	r := newRig(t, 96*4096, 16, withScheme(HWDP), kptedEvery(sim.Millisecond))
	va := r.mmapAnon(t, 192, true)
	// Touch page 0 read-only (stays clean), then flood.
	r.access(t, r.th, va, false)
	for i := 1; i < 192; i++ {
		r.access(t, r.th, va+pagetable.VAddr(i*4096), false)
	}
	r.eng.RunUntil(r.eng.Now() + 50*sim.Millisecond)
	e, _ := r.p.AS.Table.Lookup(va)
	if e.Present() {
		t.Skip("page 0 survived eviction pressure")
	}
	if e.Block().LBA != pagetable.AnonFirstTouch {
		t.Fatalf("clean anon eviction should restore the first-touch constant, got LBA %d", e.Block().LBA)
	}
}

func TestStallTimeoutConvertsToContextSwitch(t *testing.T) {
	// A device 100x slower than the timeout: the stall converts into a
	// context switch, bounding wasted pipeline time (Section V).
	slow := ssd.Profile{Name: "slow", Read4K: 2 * sim.Millisecond,
		Write4K: 2 * sim.Millisecond, Channels: 2}
	r := newRigProf(t, 64<<20, 512, slow, withScheme(HWDP), withStallTimeout(100*sim.Microsecond))
	va, _ := r.mmapFile(t, "f", 8, MmapFlags{Fast: true})
	out, lat := r.access(t, r.th, va, false)
	if out != mmu.OutcomeHW {
		t.Fatalf("outcome = %v", out)
	}
	if lat < 2*sim.Millisecond {
		t.Fatalf("latency = %v, device is 2ms", lat)
	}
	st := r.k.Stats()
	if st.StallTimeouts != 1 {
		t.Fatalf("timeouts = %d", st.StallTimeouts)
	}
	// The pipeline stalled only ~100us of the 2ms.
	if r.th.HW.StallTime > 150*sim.Microsecond {
		t.Fatalf("stall time = %v, timeout did not free the core", r.th.HW.StallTime)
	}
	if r.th.HW.ContextSwaps != 2 {
		t.Fatalf("context swaps = %d", r.th.HW.ContextSwaps)
	}
}

func TestStallTimeoutNotTakenForFastDevice(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(HWDP), withStallTimeout(sim.Millisecond))
	va, _ := r.mmapFile(t, "f", 8, MmapFlags{Fast: true})
	out, _ := r.access(t, r.th, va, false)
	if out != mmu.OutcomeHW {
		t.Fatalf("outcome = %v", out)
	}
	if r.k.Stats().StallTimeouts != 0 {
		t.Fatal("timeout fired for a fast miss")
	}
}

func TestMultiDeviceRouting(t *testing.T) {
	// Two NVMe devices behind one SMU: PTEs carry distinct device IDs and
	// misses route to the right device.
	r := newRig(t, 64<<20, 512, withScheme(HWDP))
	prof := ssd.OptaneDCPMM
	prof.JitterFrac = 0
	fsys2 := fs.New(0, 1, 2, 1<<16)
	dev2 := ssd.New(r.eng, prof, sim.NewRand(9), func(cmd nvme.Command) {
		frame := cmd.PRP1 / 4096
		switch cmd.Opcode {
		case nvme.OpRead:
			_ = fsys2.ReadDMA(r.mem, memFrame(frame), cmd.SLBA)
		case nvme.OpWrite:
			_ = fsys2.WriteDMA(r.mem, memFrame(frame), cmd.SLBA)
		}
	})
	dev2.AddNamespace(nvme.Namespace{ID: 2, Blocks: 1 << 16})
	r.smu.AttachDevice(1, dev2, 2, 2)
	r.k.AttachStorage(0, 1, dev2, fsys2)

	f2, err := fsys2.Create("on-dev2", 8, fs.SeededInit(5))
	if err != nil {
		t.Fatal(err)
	}
	va2, err := r.k.Mmap(r.p, 0, 1, f2, pagetable.Prot{User: true}, MmapFlags{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	e, _ := r.p.AS.Table.Lookup(va2)
	if e.Block().DeviceID != 1 {
		t.Fatalf("device ID in PTE = %d", e.Block().DeviceID)
	}
	out, lat := r.access(t, r.th, va2, false)
	if out != mmu.OutcomeHW {
		t.Fatalf("outcome = %v", out)
	}
	if dev2.Stats().Reads != 1 || r.dev.Stats().Reads != 0 {
		t.Fatalf("reads routed wrong: dev1=%d dev2=%d", r.dev.Stats().Reads, dev2.Stats().Reads)
	}
	// The PMM profile is much faster than the Z-SSD.
	want := r.mmu.WalkLatency + r.smu.Timing().BeforeDevice() + prof.Read4K + r.smu.Timing().AfterDevice()
	if lat != want {
		t.Fatalf("latency = %v, want %v", lat, want)
	}
	// Content flows from the second file system.
	buf := make([]byte, 32)
	want2 := make([]byte, fs.PageBytes)
	fs.SeededInit(5)(0, want2)
	got := false
	r.k.Load(r.th, va2, buf, func(mmu.Result) { got = true })
	r.eng.RunUntil(r.eng.Now() + sim.Second)
	if !got || !bytes.Equal(buf, want2[:32]) {
		t.Fatal("content from wrong device")
	}
}

func memFrame(f uint64) mem.FrameID { return mem.FrameID(f) }

func TestMunmapAnonRegion(t *testing.T) {
	// kpoold disabled for exact frame accounting (see
	// TestMunmapBarriersAndFrees).
	r := newRig(t, 64<<20, 512, withScheme(HWDP), kptedEvery(sim.Millisecond), noKpoold())
	va := r.mmapAnon(t, 32, true)
	for i := 0; i < 8; i++ {
		r.access(t, r.th, va+pagetable.VAddr(i*4096), true)
	}
	freeBefore := r.mem.FreeFrames()
	done := false
	r.k.Munmap(r.th, va, func() { done = true })
	r.eng.RunUntil(r.eng.Now() + sim.Second)
	if !done {
		t.Fatal("munmap hung")
	}
	// Dirty anon pages write back asynchronously; frames return by then.
	r.eng.RunUntil(r.eng.Now() + sim.Second)
	if r.mem.FreeFrames() < freeBefore+8 {
		t.Fatalf("anon frames not freed: before=%d after=%d", freeBefore, r.mem.FreeFrames())
	}
	out, _ := r.access(t, r.th, va, false)
	if out != mmu.OutcomeBadAddr {
		t.Fatalf("access after munmap = %v", out)
	}
}

func TestForkWithAnonVMA(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(HWDP))
	va := r.mmapAnon(t, 8, true)
	r.access(t, r.th, va, true)
	child := r.k.Fork(r.p)
	// Parent anon PTEs reverted: no LBA-augmented entries remain.
	for i := 0; i < 8; i++ {
		e, ok := r.p.AS.Table.Lookup(va + pagetable.VAddr(i*4096))
		if !ok {
			continue
		}
		if s := e.State(); s == pagetable.StateNotPresentLBA || s == pagetable.StateResidentUnsynced {
			t.Fatalf("anon page %d still %v after fork", i, s)
		}
	}
	// Child faults via the OS and sees zero-filled pages.
	thC := r.k.NewThread(child, 2)
	out, _ := r.access(t, thC, va+4096, false)
	if out != mmu.OutcomeOSFault {
		t.Fatalf("child anon fault = %v", out)
	}
}

func TestFsyncAnonBacking(t *testing.T) {
	// Fsync on a regular file while anon VMAs exist must not touch them.
	r := newRig(t, 64<<20, 512, withScheme(HWDP))
	_ = r.mmapAnon(t, 8, true)
	fva, f := r.mmapFile(t, "g", 4, MmapFlags{Fast: true})
	okS := false
	r.k.Store(r.th, fva, []byte("z"), func(mmu.Result) {
		r.k.Fsync(r.th, f, func() { okS = true })
	})
	r.eng.RunUntil(r.eng.Now() + sim.Second)
	if !okS {
		t.Fatal("fsync hung")
	}
}
