// Package check provides machine-wide invariant validation for a running
// simulation. It inspects the kernel, memory, page tables and SMU and
// returns every violation found. The test suite runs it inside stress
// workloads; downstream users can call it from their own experiments (via
// hwdp.System.CheckInvariants) to catch model misuse early.
package check

import (
	"fmt"

	"hwdp/internal/core"
	"hwdp/internal/mem"
	"hwdp/internal/pagetable"
)

// Violation is one broken invariant.
type Violation struct {
	Invariant string
	Detail    string
}

// String renders the violation as "invariant: detail".
func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// report collects violations.
type report struct{ out []Violation }

func (r *report) addf(inv, format string, args ...any) {
	r.out = append(r.out, Violation{inv, fmt.Sprintf(format, args...)})
}

// System validates every structural invariant of the machine:
//
//   - frame accounting: allocated + free == total;
//   - no aliasing: no physical frame is named by two present, synced PTEs
//     of different file pages;
//   - Table I discipline: every PTE is in one of the four legal states,
//     and non-present LBA-augmented PTEs name an attached socket;
//   - page cache (kernel.Kernel.AuditPageCache): one page per frame, the
//     file indexes and the LRU agree, every present synced PTE names the
//     frame cached for its file page, and reverse maps point back;
//   - SMU: outstanding misses never exceed the PMSHR size, and free-page
//     queues only hold frames the allocator handed out.
func System(s *core.System) []Violation {
	var r report
	checkFrames(&r, s)
	checkPageTables(&r, s)
	for _, v := range s.K.AuditPageCache() {
		r.out = append(r.out, Violation{v.Invariant, v.Detail})
	}
	checkSMU(&r, s)
	return r.out
}

func checkFrames(r *report, s *core.System) {
	if s.Mem.FreeFrames() > s.Mem.Frames() {
		r.addf("frame-accounting", "free %d > total %d", s.Mem.FreeFrames(), s.Mem.Frames())
	}
	// Allocator conservation: outstanding allocations (allocs − frees)
	// plus the free list must cover physical memory exactly. A shortfall
	// means the allocator double-handed a frame; an excess means one was
	// freed twice or invented.
	outstanding := s.Mem.Allocs() - s.Mem.Frees()
	if s.Mem.FreeFrames()+outstanding != s.Mem.Frames() {
		r.addf("frame-conservation", "free %d + outstanding %d != total %d",
			s.Mem.FreeFrames(), outstanding, s.Mem.Frames())
	}
}

func checkPageTables(r *report, s *core.System) {
	type owner struct {
		va pagetable.VAddr
	}
	// Every process is audited; the aliasing map is per address space
	// (sharing one frame across processes through the page cache is
	// legal, two virtual pages of one process naming one frame is not).
	for _, p := range s.K.Processes() {
		p := p
		frameOwners := make(map[mem.FrameID]owner)
		p.AS.Table.ScanAll(func(va pagetable.VAddr, pte pagetable.EntryRef) {
			e := pte.Get()
			switch e.State() {
			case pagetable.StateResident, pagetable.StateResidentUnsynced:
				f := e.PFN()
				if !s.Mem.Allocated(f) {
					r.addf("pte-frame", "ASID %d: PTE at %#x names unallocated frame %d",
						p.AS.ASID, uint64(va), f)
					return
				}
				if prev, dup := frameOwners[f]; dup {
					r.addf("no-aliasing", "ASID %d: frame %d mapped at %#x and %#x",
						p.AS.ASID, f, uint64(prev.va), uint64(va))
				}
				frameOwners[f] = owner{va}
			case pagetable.StateNotPresentLBA:
				b := e.Block()
				if b.LBA != pagetable.AnonFirstTouch && int(b.SID) >= len(s.SMUs) {
					r.addf("sid-routing", "ASID %d: PTE at %#x names socket %d of %d",
						p.AS.ASID, uint64(va), b.SID, len(s.SMUs))
				}
			}
		})
	}
}

func checkSMU(r *report, s *core.System) {
	for sid, u := range s.SMUs {
		if u.Outstanding() > u.Entries() {
			r.addf("pmshr-bound", "socket %d: %d outstanding > %d entries",
				sid, u.Outstanding(), u.Entries())
		}
		for qi, q := range u.Queues() {
			if q.Len() < 0 || q.Len() > q.Depth() {
				r.addf("free-queue", "socket %d queue %d: len %d of depth %d",
					sid, qi, q.Len(), q.Depth())
			}
		}
		// Frame conservation: every frame the OS handed the SMU was either
		// installed into a PTE or is still held in a queue, prefetch buffer
		// or PMSHR entry. A shortfall means a frame leaked on some error
		// path; an excess means one was double-counted or double-requeued.
		st := u.Stats()
		held := uint64(u.FramesHeld())
		if st.FramesAccepted != st.FramesInstalled+held {
			r.addf("frame-conservation",
				"socket %d: accepted %d != installed %d + held %d (recycled %d)",
				sid, st.FramesAccepted, st.FramesInstalled, held, st.FramesRecycled)
		}
	}
}
