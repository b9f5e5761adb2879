package smu

import (
	"strings"
	"testing"
	"testing/quick"

	"hwdp/internal/mem"

	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/ssd"
	"hwdp/internal/trace"
)

type rig struct {
	eng *sim.Engine
	smu *SMU
	tbl *pagetable.Table
	dev *ssd.Device
}

func newRig(t *testing.T, freeFrames int) *rig {
	t.Helper()
	eng := sim.NewEngine()
	prof := ssd.ZSSD
	prof.JitterFrac = 0
	dev := ssd.New(eng, prof, sim.NewRand(1), nil)
	dev.AddNamespace(nvme.Namespace{ID: 1, Blocks: 1 << 30})
	s := New(eng, 0, 4096)
	qp := nvme.NewQueuePair(100, 2*PMSHREntries)
	s.AttachDevice(0, dev, qp, 1)
	if freeFrames > 0 {
		s.Refill(recs(freeFrames, 1000))
	}
	return &rig{eng: eng, smu: s, tbl: pagetable.New(), dev: dev}
}

func (r *rig) request(va pagetable.VAddr, lba uint64) Request {
	pud, pmd, pte := r.tbl.Ensure(va)
	blk := pagetable.BlockAddr{SID: 0, DeviceID: 0, LBA: lba}
	prot := pagetable.Prot{Write: true, User: true}
	pte.Set(pagetable.MakeLBA(blk, prot))
	return Request{PUD: pud, PMD: pmd, PTE: pte, Block: blk, Prot: prot}
}

func TestSingleMissHandledInHardware(t *testing.T) {
	r := newRig(t, 64)
	req := r.request(0x1000, 77)
	var res Result = -1
	var pte pagetable.Entry
	r.smu.HandleMiss(req, func(rr Result, p pagetable.Entry) { res, pte = rr, p })
	r.eng.Run()

	if res != ResultOK {
		t.Fatalf("result = %v", res)
	}
	if pte.State() != pagetable.StateResidentUnsynced {
		t.Fatalf("pte state = %v (LBA bit must stay set for kpted)", pte.State())
	}
	if pte.PFN() != 1000 {
		t.Fatalf("pfn = %d", pte.PFN())
	}
	if got := req.PTE.Get(); got != pte {
		t.Fatalf("table pte %#x != broadcast %#x", uint64(got), uint64(pte))
	}
	// Protection bits preserved across hardware handling.
	if p := pte.Prot(); !p.Write || !p.User {
		t.Fatalf("prot lost: %+v", p)
	}
	// Upper levels marked for kpted.
	if !req.PUD.Get().LBABit() || !req.PMD.Get().LBABit() {
		t.Fatal("upper-level LBA bits not set")
	}
	// Latency: before-device + device + after-device, nothing else.
	want := r.smu.Timing().BeforeDevice() + ssd.ZSSD.Read4K + r.smu.Timing().AfterDevice()
	if got := r.eng.Now(); got != want {
		t.Fatalf("latency = %v, want %v", got, want)
	}
	st := r.smu.Stats()
	if st.Handled != 1 || st.Coalesced != 0 || st.NoFreePage != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if r.smu.Outstanding() != 0 {
		t.Fatal("PMSHR not drained")
	}
}

func TestBeforeAfterDeviceLatencies(t *testing.T) {
	// Fig. 11(b): before-device ~82ns (dominated by the 77.16ns command
	// write), after-device ~36ns (97-cycle PT update dominates).
	tm := DefaultTiming()
	if b := tm.BeforeDevice().Nanos(); b < 78 || b > 90 {
		t.Fatalf("before device = %.2fns", b)
	}
	if a := tm.AfterDevice().Nanos(); a < 30 || a > 40 {
		t.Fatalf("after device = %.2fns", a)
	}
}

func TestCoalescingDuplicateMisses(t *testing.T) {
	r := newRig(t, 64)
	req := r.request(0x2000, 5)
	var results []pagetable.Entry
	for i := 0; i < 3; i++ {
		r.smu.HandleMiss(req, func(res Result, p pagetable.Entry) {
			if res != ResultOK {
				t.Fatalf("res = %v", res)
			}
			results = append(results, p)
		})
	}
	r.eng.Run()
	if len(results) != 3 {
		t.Fatalf("waiters completed: %d", len(results))
	}
	for _, p := range results[1:] {
		if p != results[0] {
			t.Fatal("coalesced waiters observed different PTE values")
		}
	}
	if r.dev.Stats().Reads != 1 {
		t.Fatalf("device reads = %d, want 1 (coalesced)", r.dev.Stats().Reads)
	}
	if st := r.smu.Stats(); st.Coalesced != 2 || st.Handled != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDistinctMissesProceedConcurrently(t *testing.T) {
	r := newRig(t, 64)
	n := 0
	for i := 0; i < 8; i++ {
		req := r.request(pagetable.VAddr(0x10000+i*0x1000), uint64(i))
		r.smu.HandleMiss(req, func(res Result, _ pagetable.Entry) {
			if res != ResultOK {
				t.Fatalf("res = %v", res)
			}
			n++
		})
	}
	r.eng.Run()
	if n != 8 {
		t.Fatalf("completed = %d", n)
	}
	// 8 misses striped across 8 device channels overlap: total wall time
	// must be far below 8 serial device reads.
	if r.eng.Now() > 2*ssd.ZSSD.Read4K {
		t.Fatalf("no overlap: %v", r.eng.Now())
	}
}

func TestNoFreePageFailsToOS(t *testing.T) {
	r := newRig(t, 0)
	req := r.request(0x3000, 9)
	var res Result = -1
	r.smu.HandleMiss(req, func(rr Result, _ pagetable.Entry) { res = rr })
	r.eng.Run()
	if res != ResultNoFreePage {
		t.Fatalf("res = %v", res)
	}
	if req.PTE.Get().State() != pagetable.StateNotPresentLBA {
		t.Fatal("failed miss must leave PTE untouched")
	}
	if st := r.smu.Stats(); st.NoFreePage != 1 || st.Handled != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if r.dev.Stats().Reads != 0 {
		t.Fatal("device touched despite no free page")
	}
}

func TestFreeQueueConsumedInOrder(t *testing.T) {
	r := newRig(t, 3)
	var pfns []uint64
	for i := 0; i < 3; i++ {
		req := r.request(pagetable.VAddr(0x100000+i*0x1000), uint64(100+i))
		r.smu.HandleMiss(req, func(res Result, p pagetable.Entry) {
			pfns = append(pfns, uint64(p.PFN()))
		})
	}
	r.eng.Run()
	if len(pfns) != 3 {
		t.Fatalf("done = %d", len(pfns))
	}
	seen := map[uint64]bool{}
	for _, p := range pfns {
		if p < 1000 || p > 1002 || seen[p] {
			t.Fatalf("frames misassigned: %v", pfns)
		}
		seen[p] = true
	}
}

func TestPMSHRBacklog(t *testing.T) {
	r := newRig(t, 128)
	const n = PMSHREntries + 8
	done := 0
	for i := 0; i < n; i++ {
		// Same device channel so they serialize and the PMSHR saturates.
		req := r.request(pagetable.VAddr(0x200000+i*0x1000), uint64(i*ssd.ZSSD.Channels))
		r.smu.HandleMiss(req, func(res Result, _ pagetable.Entry) {
			if res != ResultOK {
				t.Fatalf("res = %v", res)
			}
			done++
		})
	}
	r.eng.Run()
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	if st := r.smu.Stats(); st.Backlogged != 8 {
		t.Fatalf("backlogged = %d, want 8", st.Backlogged)
	}
}

func TestBarrierWaitsForOutstanding(t *testing.T) {
	r := newRig(t, 8)
	req := r.request(0x5000, 3)
	missDone := false
	r.smu.HandleMiss(req, func(Result, pagetable.Entry) { missDone = true })
	barrierAt := sim.Time(-1)
	// Schedule the barrier while the miss is in flight.
	r.eng.Post(sim.Micro(1), func() {
		r.smu.Barrier([]pagetable.EntryAddr{req.PTE.Addr()}, func() {
			if !missDone {
				t.Fatal("barrier fired before outstanding miss completed")
			}
			barrierAt = r.eng.Now()
		})
	})
	r.eng.Run()
	if barrierAt < 0 {
		t.Fatal("barrier never fired")
	}
}

func TestBarrierNoMatchesFiresImmediately(t *testing.T) {
	r := newRig(t, 8)
	fired := false
	r.smu.Barrier([]pagetable.EntryAddr{12345}, func() { fired = true })
	r.eng.Run()
	if !fired {
		t.Fatal("empty barrier did not fire")
	}
}

func TestBarrierAll(t *testing.T) {
	r := newRig(t, 8)
	var order []string
	for i := 0; i < 4; i++ {
		req := r.request(pagetable.VAddr(0x70000+i*0x1000), uint64(i))
		r.smu.HandleMiss(req, func(Result, pagetable.Entry) { order = append(order, "miss") })
	}
	r.eng.Post(sim.Micro(1), func() {
		r.smu.BarrierAll(func() { order = append(order, "barrier") })
	})
	r.eng.Run()
	if len(order) != 5 || order[4] != "barrier" {
		t.Fatalf("order = %v", order)
	}
}

func TestIOErrorPath(t *testing.T) {
	r := newRig(t, 8)
	req := r.request(0x9000, uint64(1)<<35) // beyond namespace? 1<<30 blocks
	req.Block.LBA = 1 << 31
	req.PTE.Set(pagetable.MakeLBA(req.Block, req.Prot))
	var res Result = -1
	r.smu.HandleMiss(req, func(rr Result, _ pagetable.Entry) { res = rr })
	r.eng.Run()
	if res != ResultIOError {
		t.Fatalf("res = %v", res)
	}
	if r.smu.Outstanding() != 0 {
		t.Fatal("PMSHR leaked on IO error")
	}
}

func TestUnattachedDeviceIDFails(t *testing.T) {
	r := newRig(t, 8)
	req := r.request(0xA000, 1)
	req.Block.DeviceID = 5
	var res Result = -1
	r.smu.HandleMiss(req, func(rr Result, _ pagetable.Entry) { res = rr })
	r.eng.Run()
	if res != ResultIOError {
		t.Fatalf("res = %v", res)
	}
}

func TestAttachDeviceValidation(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, 0, 64)
	prof := ssd.ZSSD
	dev := ssd.New(eng, prof, sim.NewRand(1), nil)
	qp := nvme.NewQueuePair(1, 8)
	s.AttachDevice(3, dev, qp, 1)
	if qp.InterruptsEnabled {
		t.Fatal("SMU queue must run with interrupts disabled")
	}
	for _, f := range []func(){
		func() { s.AttachDevice(8, dev, nvme.NewQueuePair(2, 8), 1) },
		func() { s.AttachDevice(3, dev, nvme.NewQueuePair(3, 8), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			f()
		}()
	}
}

func TestTracerPhases(t *testing.T) {
	// A hardware miss records every SMU and NVMe handling phase, each with
	// a positive duration, in its trace record.
	r := newRig(t, 8)
	req := r.request(0xB000, 4)
	req.Trace = &trace.Miss{}
	r.smu.HandleMiss(req, func(Result, pagetable.Entry) {})
	r.eng.Run()
	var phases []string
	for _, sp := range req.Trace.Spans {
		if sp.Layer != trace.LayerSMU && sp.Layer != trace.LayerNVMe {
			continue
		}
		if sp.Dur() <= 0 {
			t.Errorf("phase %q has non-positive duration", sp.Name)
		}
		phases = append(phases, sp.Name)
	}
	want := []string{"req-regs+cam", "free-page-fetch", "pmshr-write", "nvme-cmd-write",
		"sq-doorbell", "cq-handle", "pt-update", "notify-mmu"}
	if strings.Join(phases, ",") != strings.Join(want, ",") {
		t.Errorf("phases = %v, want %v", phases, want)
	}
}

func TestPrefetchHidesMemoryLatency(t *testing.T) {
	// After a refill, pops come from the prefetch buffer (no memory trip).
	r := newRig(t, 8)
	req := r.request(0xC000, 2)
	r.smu.HandleMiss(req, func(Result, pagetable.Entry) {})
	r.eng.Run()
	if st := r.smu.Stats(); st.BufferMisses != 0 {
		t.Fatalf("buffer misses = %d", st.BufferMisses)
	}
}

func TestResultString(t *testing.T) {
	if ResultOK.String() != "ok" || ResultNoFreePage.String() != "no-free-page" ||
		ResultIOError.String() != "io-error" || Result(9).String() != "?" {
		t.Fatal("result strings")
	}
}

// Property: under any pattern of concurrent, possibly duplicate misses, no
// two PTEs ever receive the same frame and every duplicate miss observes
// the same PTE value as the original (the PMSHR's no-aliasing guarantee).
func TestNoAliasingProperty(t *testing.T) {
	f := func(pattern []uint8, seed uint64) bool {
		r := newRig(t, 256)
		seen := make(map[uint64][]pagetable.Entry) // va -> observed PTEs
		issued := 0
		for _, p := range pattern {
			if issued >= 200 {
				break
			}
			issued++
			va := pagetable.VAddr(0x100000 + uint64(p%32)*0x1000)
			// Re-issue against the live table: duplicates while outstanding
			// coalesce; already-resident pages are skipped.
			_, _, pte, ok := r.tbl.Walk(va)
			if ok && pte.Get().Present() {
				continue
			}
			var req Request
			if !ok || pte.Get() == 0 {
				req = r.request(va, uint64(p))
			} else {
				pud, pmd, pte2 := r.tbl.Ensure(va)
				e := pte2.Get()
				req = Request{PUD: pud, PMD: pmd, PTE: pte2, Block: e.Block(), Prot: e.Prot()}
			}
			vaKey := uint64(va)
			r.smu.HandleMiss(req, func(res Result, e pagetable.Entry) {
				if res == ResultOK {
					seen[vaKey] = append(seen[vaKey], e)
				}
			})
			// Interleave some progress.
			if p%3 == 0 {
				for i := 0; i < int(p); i++ {
					if !r.eng.Step() {
						break
					}
				}
			}
		}
		r.eng.Run()
		frames := map[mem.FrameID]uint64{}
		for va, entries := range seen {
			for _, e := range entries {
				if e != entries[0] {
					return false // coalesced waiters must agree
				}
			}
			f := entries[0].PFN()
			if prev, dup := frames[f]; dup && prev != va {
				return false // two pages share a frame
			}
			frames[f] = va
		}
		return r.smu.Outstanding() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
