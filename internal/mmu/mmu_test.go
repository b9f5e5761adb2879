package mmu

import (
	"testing"
	"testing/quick"

	"hwdp/internal/mem"
	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/smu"
	"hwdp/internal/ssd"
	"hwdp/internal/trace"
)

func TestTLBBasics(t *testing.T) {
	tlb := NewTLB(4, 2)
	if tlb.Entries() != 8 {
		t.Fatal("entries")
	}
	tbl := pagetable.New()
	_, _, pte := tbl.Ensure(0x1000)
	pte.Set(pagetable.MakePresent(7, pagetable.Prot{}, true))
	if _, ok := tlb.Lookup(1, 1); ok {
		t.Fatal("hit on empty TLB")
	}
	tlb.Insert(1, 1, pte)
	got, ok := tlb.Lookup(1, 1)
	if !ok || got.Get().PFN() != 7 {
		t.Fatal("lookup after insert")
	}
	// Different ASID, same VPN: miss.
	if _, ok := tlb.Lookup(2, 1); ok {
		t.Fatal("ASID not respected")
	}
	tlb.Invalidate(1, 1)
	if _, ok := tlb.Lookup(1, 1); ok {
		t.Fatal("invalidate failed")
	}
	if tlb.Hits() != 1 || tlb.Misses() != 3 {
		t.Fatalf("hits=%d misses=%d", tlb.Hits(), tlb.Misses())
	}
}

func TestTLBEvictionWithinSet(t *testing.T) {
	tlb := NewTLB(1, 2) // one set, two ways
	tbl := pagetable.New()
	var refs []pagetable.EntryRef
	for i := 0; i < 3; i++ {
		_, _, pte := tbl.Ensure(pagetable.VAddr(0x1000 * (i + 1)))
		refs = append(refs, pte)
		tlb.Insert(0, uint64(i), pte)
	}
	// First insert evicted (round-robin).
	if _, ok := tlb.Lookup(0, 0); ok {
		t.Fatal("way not evicted")
	}
	if _, ok := tlb.Lookup(0, 2); !ok {
		t.Fatal("newest entry missing")
	}
}

func TestTLBInsertUpdatesExisting(t *testing.T) {
	tlb := NewTLB(2, 2)
	tbl := pagetable.New()
	_, _, a := tbl.Ensure(0x1000)
	_, _, b := tbl.Ensure(0x2000)
	tlb.Insert(0, 5, a)
	tlb.Insert(0, 5, b) // same key: update, not duplicate
	got, ok := tlb.Lookup(0, 5)
	if !ok || got != b {
		t.Fatal("update failed")
	}
}

func TestTLBInvalidateASID(t *testing.T) {
	tlb := NewTLB(8, 2)
	tbl := pagetable.New()
	_, _, pte := tbl.Ensure(0x1000)
	tlb.Insert(1, 1, pte)
	tlb.Insert(2, 2, pte)
	tlb.InvalidateASID(1)
	if _, ok := tlb.Lookup(1, 1); ok {
		t.Fatal("asid 1 survived")
	}
	if _, ok := tlb.Lookup(2, 2); !ok {
		t.Fatal("asid 2 dropped")
	}
}

func TestTLBBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewTLB(0, 1)
}

// rig wires MMU + SMU + device for access-path tests.
type rig struct {
	eng *sim.Engine
	m   *MMU
	s   *smu.SMU
	as  *AddressSpace
}

func newRig(t *testing.T, freeFrames int) *rig {
	t.Helper()
	eng := sim.NewEngine()
	prof := ssd.ZSSD
	prof.JitterFrac = 0
	dev := ssd.New(eng, prof, sim.NewRand(1), nil)
	dev.AddNamespace(nvme.Namespace{ID: 1, Blocks: 1 << 30})
	s := smu.NewPerCore(eng, 0, 4096, smu.PMSHREntries, 1)
	s.AttachDevice(0, dev, 1, 1)
	if freeFrames > 0 {
		fr := make([]smu.FrameRecord, freeFrames)
		for i := range fr {
			fr[i] = smu.RecordFor(mem.FrameID(1000 + i))
		}
		s.Refill(fr)
	}
	m := New(eng)
	m.AttachSMU(s)
	return &rig{eng: eng, m: m, s: s, as: &AddressSpace{ASID: 1, Table: pagetable.New()}}
}

func TestAccessResidentPage(t *testing.T) {
	r := newRig(t, 8)
	r.as.Table.Set(0x1000, pagetable.MakePresent(5, pagetable.Prot{Write: true}, true))
	var res Result
	r.m.Access(r.as, 0x1000, false, nil, func(x Result) { res = x })
	r.eng.Run()
	if res.Outcome != OutcomeWalkHit {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if r.eng.Now() != r.m.WalkLatency {
		t.Fatalf("walk latency = %v", r.eng.Now())
	}
	// Second access: TLB hit, instantaneous.
	start := r.eng.Now()
	r.m.Access(r.as, 0x1234, false, nil, func(x Result) { res = x })
	r.eng.Run()
	if res.Outcome != OutcomeTLBHit {
		t.Fatalf("second access = %v", res.Outcome)
	}
	if r.eng.Now() != start {
		t.Fatal("TLB hit should cost no simulated time")
	}
}

func TestWriteSetsDirty(t *testing.T) {
	r := newRig(t, 8)
	r.as.Table.Set(0x1000, pagetable.MakePresent(5, pagetable.Prot{Write: true}, true))
	r.m.Access(r.as, 0x1000, true, nil, func(Result) {})
	r.eng.Run()
	e, _ := r.as.Table.Lookup(0x1000)
	if !e.Dirty() {
		t.Fatal("walk write did not set dirty")
	}
	// Dirty via TLB-hit write too.
	r.as.Table.Set(0x2000, pagetable.MakePresent(6, pagetable.Prot{Write: true}, true))
	r.m.Access(r.as, 0x2000, false, nil, func(Result) {})
	r.eng.Run()
	r.m.Access(r.as, 0x2000, true, nil, func(Result) {})
	r.eng.Run()
	e, _ = r.as.Table.Lookup(0x2000)
	if !e.Dirty() {
		t.Fatal("TLB-hit write did not set dirty")
	}
}

func TestHWMissPath(t *testing.T) {
	r := newRig(t, 8)
	blk := pagetable.BlockAddr{SID: 0, DeviceID: 0, LBA: 42}
	r.as.Table.Set(0x5000, pagetable.MakeLBA(blk, pagetable.Prot{User: true}))
	var res Result
	r.m.Access(r.as, 0x5000, false, nil, func(x Result) { res = x })
	r.eng.Run()
	if res.Outcome != OutcomeHW {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.PTE.State() != pagetable.StateResidentUnsynced {
		t.Fatalf("pte state = %v", res.PTE.State())
	}
	// Total latency = walk + SMU before + device + SMU after.
	want := r.m.WalkLatency + r.s.Timing().BeforeDevice() + ssd.ZSSD.Read4K + r.s.Timing().AfterDevice()
	if got := r.eng.Now(); got != want {
		t.Fatalf("latency = %v, want %v", got, want)
	}
	// Next access to the same page: TLB hit.
	r.m.Access(r.as, 0x5000, false, nil, func(x Result) { res = x })
	r.eng.Run()
	if res.Outcome != OutcomeTLBHit {
		t.Fatalf("after fill = %v", res.Outcome)
	}
	if st := r.m.Stats(); st.HWMisses != 1 || st.OSFaults != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOSFaultPath(t *testing.T) {
	r := newRig(t, 8)
	r.as.Table.Set(0x7000, pagetable.MakeSwap(9, pagetable.Prot{}))
	faults := 0
	r.m.SetOSFaultHandler(func(ctx any, as *AddressSpace, va pagetable.VAddr, write, hwFailed bool, ms *trace.Miss, done func(bool)) {
		faults++
		if hwFailed {
			t.Fatal("conventional fault flagged as hw-failed")
		}
		// Kernel installs the mapping after its handling latency.
		r.eng.Post(sim.Micro(20), func() {
			as.Table.Set(va.PageBase(), pagetable.MakePresent(77, pagetable.Prot{}, true))
			done(true)
		})
	})
	var res Result
	r.m.Access(r.as, 0x7000, false, nil, func(x Result) { res = x })
	r.eng.Run()
	if res.Outcome != OutcomeOSFault || faults != 1 {
		t.Fatalf("outcome = %v faults = %d", res.Outcome, faults)
	}
	if res.PTE.PFN() != 77 {
		t.Fatalf("pfn = %d", res.PTE.PFN())
	}
}

func TestHWMissBouncesToOSWhenNoFreePage(t *testing.T) {
	r := newRig(t, 0) // empty free page queue
	blk := pagetable.BlockAddr{SID: 0, DeviceID: 0, LBA: 3}
	r.as.Table.Set(0x9000, pagetable.MakeLBA(blk, pagetable.Prot{}))
	hwFailedSeen := false
	r.m.SetOSFaultHandler(func(ctx any, as *AddressSpace, va pagetable.VAddr, write, hwFailed bool, ms *trace.Miss, done func(bool)) {
		hwFailedSeen = hwFailed
		r.eng.Post(sim.Micro(15), func() {
			as.Table.Set(va.PageBase(), pagetable.MakePresent(55, pagetable.Prot{}, true))
			done(true)
		})
	})
	var res Result
	r.m.Access(r.as, 0x9000, false, nil, func(x Result) { res = x })
	r.eng.Run()
	if res.Outcome != OutcomeOSFault {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if !hwFailedSeen {
		t.Fatal("kernel not told the hardware path failed (it must refill the queue)")
	}
	if st := r.m.Stats(); st.HWBounced != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestRewalkFaultIsRaisedAgain: the kernel resolves a bounced miss but
// the page is gone again by the re-walk (the handler leaves the PTE as an
// LBA on its first call), so the re-walk's miss bounces again. The second
// fault goes back to the kernel, which installs the page this time.
func TestRewalkFaultIsRaisedAgain(t *testing.T) {
	r := newRig(t, 0) // empty free page queue: every hardware miss bounces
	blk := pagetable.BlockAddr{SID: 0, DeviceID: 0, LBA: 3}
	r.as.Table.Set(0x9000, pagetable.MakeLBA(blk, pagetable.Prot{}))
	calls := 0
	r.m.SetOSFaultHandler(func(ctx any, as *AddressSpace, va pagetable.VAddr, write, hwFailed bool, ms *trace.Miss, done func(bool)) {
		calls++
		if !hwFailed {
			t.Fatalf("fault %d not flagged as a bounced hardware miss", calls)
		}
		r.eng.Post(sim.Micro(15), func() {
			if calls > 1 {
				as.Table.Set(va.PageBase(), pagetable.MakePresent(55, pagetable.Prot{}, true))
			}
			done(true)
		})
	})
	var res Result
	r.m.Access(r.as, 0x9000, false, nil, func(x Result) { res = x })
	r.eng.Run()
	if res.Outcome != OutcomeOSFault || calls != 2 {
		t.Fatalf("outcome = %v after %d handler calls, want %v after 2", res.Outcome, calls, OutcomeOSFault)
	}
	if st := r.m.Stats(); st.OSFaults != 2 || st.HWBounced != 2 {
		t.Fatalf("stats = %+v, want 2 OS faults and 2 bounces", st)
	}
}

func TestBadAddress(t *testing.T) {
	r := newRig(t, 8)
	var res Result
	r.m.Access(r.as, 0xDEAD000, false, nil, func(x Result) { res = x })
	r.eng.Run()
	if res.Outcome != OutcomeBadAddr {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}

func TestStaleTLBEntryRewalks(t *testing.T) {
	r := newRig(t, 8)
	r.as.Table.Set(0x1000, pagetable.MakePresent(5, pagetable.Prot{}, true))
	r.m.Access(r.as, 0x1000, false, nil, func(Result) {})
	r.eng.Run()
	// Kernel evicts the page but forgets the shootdown (stale TLB entry).
	r.as.Table.Set(0x1000, pagetable.MakeLBA(pagetable.BlockAddr{LBA: 1}, pagetable.Prot{}))
	var res Result
	r.m.Access(r.as, 0x1000, false, nil, func(x Result) { res = x })
	r.eng.Run()
	if res.Outcome != OutcomeHW {
		t.Fatalf("stale entry outcome = %v", res.Outcome)
	}
}

func TestCoalescedAccessesOneDeviceRead(t *testing.T) {
	r := newRig(t, 8)
	blk := pagetable.BlockAddr{SID: 0, DeviceID: 0, LBA: 4}
	r.as.Table.Set(0x4000, pagetable.MakeLBA(blk, pagetable.Prot{}))
	n := 0
	for i := 0; i < 4; i++ {
		r.m.Access(r.as, 0x4000, false, nil, func(x Result) {
			if x.Outcome != OutcomeHW {
				t.Fatalf("outcome = %v", x.Outcome)
			}
			n++
		})
	}
	r.eng.Run()
	if n != 4 {
		t.Fatalf("completions = %d", n)
	}
	if st := r.s.Stats(); st.Handled != 1 || st.Coalesced != 3 {
		t.Fatalf("smu stats = %+v", st)
	}
}

func TestDoubleAttachSMUPanics(t *testing.T) {
	r := newRig(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	r.m.AttachSMU(smu.NewPerCore(r.eng, 0, 8, smu.PMSHREntries, 1))
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		OutcomeTLBHit: "tlb-hit", OutcomeWalkHit: "walk-hit", OutcomeHW: "hw-miss",
		OutcomeOSFault: "os-fault", OutcomeBadAddr: "bad-addr", Outcome(9): "?",
	} {
		if o.String() != want {
			t.Errorf("%d = %q", o, o.String())
		}
	}
}

// Property: TLB lookups never return an entry for a different (asid, vpn).
func TestTLBCorrectnessProperty(t *testing.T) {
	tbl := pagetable.New()
	f := func(keys []uint16) bool {
		tlb := NewTLB(8, 2)
		inserted := map[[2]uint32]pagetable.EntryRef{}
		for i, k := range keys {
			asid := uint32(k % 3)
			vpn := uint64(k % 64)
			_, _, pte := tbl.Ensure(pagetable.VAddr(uint64(i+1) * 0x1000))
			tlb.Insert(asid, vpn, pte)
			inserted[[2]uint32{asid, uint32(vpn)}] = pte
		}
		for key, want := range inserted {
			got, ok := tlb.Lookup(key[0], uint64(key[1]))
			if ok && got != want {
				return false // wrong translation is never acceptable
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
