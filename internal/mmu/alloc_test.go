package mmu

import (
	"testing"

	"hwdp/internal/mem"
	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/smu"
	"hwdp/internal/ssd"
	"hwdp/internal/trace"
)

// TestAccessMissAllocationBudget pins the MMU side of the steady-state
// hardware miss path — TLB miss, pooled walk request, page-table walk,
// miss dispatch through the pooled continuation (HandleMissArg + the
// missDone trampoline), TLB fill and completion callback — at zero
// allocations, complementing the SMU-side pin in internal/smu. This is
// the regression guard for the de-closured walk path: reintroducing a
// per-miss closure in walk or prefetch trips it immediately.
func TestAccessMissAllocationBudget(t *testing.T) {
	eng := sim.NewEngine()
	prof := ssd.ZSSD
	prof.JitterFrac = 0
	dev := ssd.New(eng, prof, sim.NewRand(1), nil)
	dev.AddNamespace(nvme.Namespace{ID: 1, Blocks: 1 << 30})
	s := smu.NewPerCore(eng, 0, 4096, smu.PMSHREntries, 1)
	s.AttachDevice(0, dev, 1, 1)
	m := New(eng)
	m.AttachSMU(s)
	as := &AddressSpace{ASID: 1, Table: pagetable.New()}

	recs := make([]smu.FrameRecord, 1<<12)
	for i := range recs {
		recs[i] = smu.RecordFor(mem.FrameID(1000 + i))
	}
	s.Refill(recs)

	// Pre-build the page-table structure for a rotating set of pages so
	// the measured runs never extend the radix tree.
	const pages = 64
	vas := make([]pagetable.VAddr, pages)
	ptes := make([]pagetable.EntryRef, pages)
	blks := make([]pagetable.BlockAddr, pages)
	for i := range vas {
		vas[i] = pagetable.VAddr(0x100000 + i*4096)
		_, _, pte := as.Table.Ensure(vas[i])
		ptes[i] = pte
		blks[i] = pagetable.BlockAddr{LBA: uint64(42 + i)}
	}
	done := false
	complete := func(Result) { done = true }
	iter := 0

	got := testing.AllocsPerRun(500, func() {
		if s.FreeQueue().Len()+s.FreeQueue().Buffered() < 8 {
			s.Refill(recs)
		}
		i := iter % pages
		iter++
		// Rearm the page: back to LBA state, out of the TLB, so every
		// iteration takes the full hardware miss path.
		ptes[i].Set(pagetable.MakeLBA(blks[i], pagetable.Prot{}))
		m.tlb.Invalidate(as.ASID, vas[i].PageNumber())
		done = false
		m.Access(as, vas[i], false, nil, complete)
		for !done && eng.Step() {
		}
		if !done {
			t.Fatal("miss never completed")
		}
	})
	if got != 0 {
		t.Fatalf("steady-state MMU miss path allocates %.1f objects/op, want 0", got)
	}
}

// TestOSFaultAllocationBudget pins the OS-fault paths of the access record
// at zero allocations: the exception raised for a conventional miss, and
// the one raised for a hardware miss the SMU bounced for an empty free
// page queue. The stub fault handler maps the page and resolves the fault
// synchronously, so each access re-walks to a hit and ends as an OS fault.
func TestOSFaultAllocationBudget(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pte     func(i int) pagetable.Entry // the not-present PTE each access misses on
		bounced bool
	}{
		{"os-fault", func(int) pagetable.Entry { return 0 }, false},
		{"hw-bounced", func(i int) pagetable.Entry {
			return pagetable.MakeLBA(pagetable.BlockAddr{LBA: uint64(42 + i)}, pagetable.Prot{})
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			m := New(eng)
			// An SMU whose free page queue is never refilled bounces every
			// hardware miss to the OS.
			m.AttachSMU(smu.NewPerCore(eng, 0, 64, smu.PMSHREntries, 1))
			as := &AddressSpace{ASID: 1, Table: pagetable.New()}
			const pages = 64
			vas := make([]pagetable.VAddr, pages)
			ptes := make([]pagetable.EntryRef, pages)
			for i := range vas {
				vas[i] = pagetable.VAddr(0x100000 + i*4096)
				_, _, ptes[i] = as.Table.Ensure(vas[i])
			}
			cur := 0
			m.SetOSFaultHandler(func(_ any, _ *AddressSpace, _ pagetable.VAddr, _, _ bool, _ *trace.Miss, done func(bool)) {
				ptes[cur].Set(pagetable.MakePresent(mem.FrameID(1000+cur), pagetable.Prot{}, true))
				done(true)
			})
			var res Result
			finished := false
			complete := func(r Result) { res, finished = r, true }
			iter := 0

			got := testing.AllocsPerRun(500, func() {
				cur = iter % pages
				iter++
				ptes[cur].Set(tc.pte(cur))
				m.tlb.Invalidate(as.ASID, vas[cur].PageNumber())
				finished = false
				m.Access(as, vas[cur], false, nil, complete)
				for !finished && eng.Step() {
				}
				if !finished || res.Outcome != OutcomeOSFault {
					t.Fatalf("access finished=%v outcome=%v, want %v", finished, res.Outcome, OutcomeOSFault)
				}
			})
			if st := m.Stats(); (st.HWBounced > 0) != tc.bounced || st.OSFaults == 0 {
				t.Fatalf("stats %+v: want bounced=%v and OS faults", st, tc.bounced)
			}
			if got != 0 {
				t.Fatalf("OS-fault access path allocates %.1f objects/op, want 0", got)
			}
		})
	}
}
