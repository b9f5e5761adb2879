// Package mmu models the memory management unit: TLB, hardware page-table
// walker, and the paper's extension — during a walk the MMU checks both the
// present and LBA bits of the PTE; a non-present, LBA-augmented entry is
// dispatched to the SMU while the pipeline stalls, instead of raising a
// page-fault exception (Section III-B, "Page Miss Handling with
// LBA-augmented PTE").
package mmu

import (
	"fmt"

	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/smu"
	"hwdp/internal/trace"
)

// Outcome classifies how an access was satisfied.
type Outcome int

// Outcomes.
const (
	// OutcomeTLBHit: translation cached, no walk.
	OutcomeTLBHit Outcome = iota
	// OutcomeWalkHit: walk found a resident PTE.
	OutcomeWalkHit
	// OutcomeHW: non-present LBA-augmented PTE, handled by the SMU with the
	// pipeline stalled.
	OutcomeHW
	// OutcomeOSFault: exception raised; the OS fault handler resolved it
	// (either a conventional miss, or a hardware miss that failed for lack
	// of a free page).
	OutcomeOSFault
	// OutcomeBadAddr: no mapping exists at all (segfault).
	OutcomeBadAddr
)

// String returns the walk outcome's display name.
func (o Outcome) String() string {
	switch o {
	case OutcomeTLBHit:
		return "tlb-hit"
	case OutcomeWalkHit:
		return "walk-hit"
	case OutcomeHW:
		return "hw-miss"
	case OutcomeOSFault:
		return "os-fault"
	case OutcomeBadAddr:
		return "bad-addr"
	}
	return "?"
}

// CoreCarrier lets the access context (the kernel's thread) tell the MMU
// which logical core is faulting, for SMUs with per-core free page queues.
type CoreCarrier interface{ CoreID() int }

// TenantCarrier lets the access context (the kernel's thread) tell the MMU
// which fleet tenant is faulting, for per-tenant SMU accounting and QoS
// admission. Contexts that do not implement it are tenant 0 (the default
// single-tenant machine).
type TenantCarrier interface{ TenantID() int }

// OSFaultFunc raises a page-fault exception to the kernel. The kernel
// handles the fault (possibly blocking the thread) and calls done. With
// resolved true the MMU re-walks, and a re-walk that faults again raises
// the exception again. With resolved false the kernel will not serve the
// access (a segfault, or a thread killed by the fault), and it ends as
// OutcomeBadAddr. hwFailed distinguishes Table I row 1 faults from
// hardware misses bounced for lack of a free page (the kernel must refill
// the free page queue in that case). ms is the miss's trace context (nil
// when tracing is disabled); the kernel attaches its phase spans to it.
type OSFaultFunc func(ctx any, as *AddressSpace, va pagetable.VAddr, write, hwFailed bool, ms *trace.Miss, done func(resolved bool))

// AddressSpace couples a page table with an ASID for TLB tagging.
type AddressSpace struct {
	ASID  uint32
	Table *pagetable.Table
}

// Stats are the MMU's counters.
type Stats struct {
	Accesses   uint64
	TLBHits    uint64
	Walks      uint64
	WalkHits   uint64
	HWMisses   uint64
	OSFaults   uint64
	HWBounced  uint64 // hardware misses that fell back to the OS
	Prefetches uint64 // speculative next-page fetches issued
}

// Result is delivered to the access callback.
type Result struct {
	Outcome Outcome
	PTE     pagetable.Entry
}

// MMU is the per-machine translation hardware (the model folds all cores'
// MMUs into one component; contention effects live in the SMU and device).
type MMU struct {
	eng  *sim.Engine
	tlb  *TLB
	smus [8]*smu.SMU // indexed by socket ID (3-bit SID field of the PTE)

	// WalkLatency is charged on every TLB miss (the hardware walker's
	// memory accesses; calibrated to the paper's Fig. 3 walk share).
	WalkLatency sim.Time

	// DispatchHW controls whether non-present LBA-augmented PTEs are sent
	// to the SMU (HWDP) or raise an exception like any other miss (the
	// SW-only scheme of Fig. 17, where the kernel emulates the SMU).
	DispatchHW bool

	// PrefetchDegree enables the paper's future-work prefetching support:
	// after dispatching a hardware miss, the next N virtually-contiguous
	// LBA-augmented pages are fetched speculatively (nobody waits on them;
	// the SMU installs their PTEs when the blocks arrive). Zero disables.
	PrefetchDegree int

	// Tracer, when non-nil, opens a per-miss trace context on every walk
	// that misses and threads it through the SMU or the OS fault path.
	Tracer *trace.Tracer

	// OnDirty, when non-nil, fires on every clean→dirty PTE transition
	// (first write to a clean page). The kernel arms it for dirty-page
	// accounting when writeback throttling is configured; nil (the
	// default) costs nothing.
	OnDirty func()

	osFault OSFaultFunc
	stats   Stats

	// walkCb is the pre-bound runWalk callback. accesses recycles the
	// access records (one per in-flight TLB miss) and prefetches the
	// prefetch continuations (one per speculative fetch), so a miss
	// allocates nothing.
	walkCb     func(any)
	accesses   sim.Pool[access]
	prefetches sim.Pool[prefetchCont]
}

// access carries one TLB-missing access from the miss to its callback:
// across the walk latency, through the SMU (HandleMissArg and the missDone
// trampoline), and through the OS fault handler and the re-walk after it.
type access struct {
	m       *MMU
	ctx     any
	as      *AddressSpace
	va      pagetable.VAddr
	write   bool
	done    func(Result)
	t0      sim.Time // when the TLB missed
	core    int
	tenant  int
	retried bool // re-walking after the OS resolved a fault
	ms      *trace.Miss
	pte     pagetable.EntryRef // the PTE dispatched to the SMU

	resolvedFn func(bool) // resolved, bound once per record (bind)
}

// prefetchCont carries one speculative prefetch's TLB-install state
// through HandleMissArg (nobody waits on a prefetch; only the TLB insert
// remains when the block arrives).
type prefetchCont struct {
	m   *MMU
	as  *AddressSpace
	va  pagetable.VAddr
	pte pagetable.EntryRef
}

// New builds an MMU with the default TLB geometry and walk latency.
func New(eng *sim.Engine) *MMU {
	m := &MMU{
		eng:         eng,
		tlb:         NewTLB(256, 6),
		WalkLatency: sim.Nano(30),
		DispatchHW:  true,
	}
	m.walkCb = m.runWalk
	return m
}

// TLB exposes the TLB (for shootdowns by the kernel).
func (m *MMU) TLB() *TLB { return m.tlb }

// Stats returns a copy of the counters.
func (m *MMU) Stats() Stats { return m.stats }

// AttachSMU registers the SMU serving a socket ID.
func (m *MMU) AttachSMU(s *smu.SMU) {
	if int(s.SID) >= len(m.smus) {
		panic(fmt.Sprintf("mmu: socket ID %d out of range", s.SID))
	}
	if m.smus[s.SID] != nil {
		panic(fmt.Sprintf("mmu: SMU for socket %d attached twice", s.SID))
	}
	m.smus[s.SID] = s
}

// SetOSFaultHandler installs the kernel's exception entry point.
func (m *MMU) SetOSFaultHandler(fn OSFaultFunc) { m.osFault = fn }

// Access translates va for the given address space. done fires when the
// translation (including any miss handling) completes; the elapsed virtual
// time is the access's translation latency. Write accesses set the dirty
// bit.
// The opaque ctx is handed to the OS fault handler unchanged (the kernel
// passes the faulting thread).
//
//hwdp:hotpath
func (m *MMU) Access(as *AddressSpace, va pagetable.VAddr, write bool, ctx any, done func(Result)) {
	m.stats.Accesses++
	vpn := va.PageNumber()
	if ref, ok := m.tlb.Lookup(as.ASID, vpn); ok {
		e := ref.Get()
		if e.Present() {
			m.stats.TLBHits++
			if write && !e.Dirty() {
				ref.Set(e.WithFlags(pagetable.FlagDirty))
				if m.OnDirty != nil {
					m.OnDirty()
				}
			}
			done(Result{OutcomeTLBHit, ref.Get()})
			return
		}
		// Stale entry (page was evicted): drop and walk.
		m.tlb.Invalidate(as.ASID, vpn)
	}
	m.stats.Walks++
	a := m.accesses.Get()
	if a.m == nil {
		a.bind(m)
	}
	a.ctx, a.as, a.va, a.write, a.done, a.t0 = ctx, as, va, write, done, m.eng.Now()
	if cc, ok := ctx.(CoreCarrier); ok {
		a.core = cc.CoreID()
	}
	if tc, ok := ctx.(TenantCarrier); ok {
		a.tenant = tc.TenantID()
	}
	m.eng.PostArg(m.WalkLatency, m.walkCb, a)
}

// bind ties a new record to m and binds its re-walk callback. It runs
// once per record: the pool keeps both across reuse.
//
//hwdp:coldpath runs once per record, only while the access pool grows
func (a *access) bind(m *MMU) {
	a.m, a.resolvedFn = m, a.resolved
}

// runWalk starts the walk of a pooled access once the walk latency elapsed.
//
//hwdp:hotpath
func (m *MMU) runWalk(arg any) { m.walk(arg.(*access)) }

// walk resolves one page-table walk. a.ms is the miss's trace context, nil
// until the walk turns out to be a miss (and always nil when tracing is
// disabled).
func (m *MMU) walk(a *access) {
	pud, pmd, pte, ok := a.as.Table.Walk(a.va)
	if !ok {
		// No page-table structure at all: a conventional OS fault (mmap'ed
		// but never populated — the OS allocates tables) or a segfault; the
		// kernel decides.
		m.raiseOS(a, false)
		return
	}
	e := pte.Get()
	switch e.State() {
	case pagetable.StateResident, pagetable.StateResidentUnsynced:
		m.stats.WalkHits++
		flags := pagetable.FlagAccessed
		if a.write {
			flags |= pagetable.FlagDirty
			if m.OnDirty != nil && !e.Dirty() {
				m.OnDirty()
			}
		}
		pte.Set(e.WithFlags(flags))
		m.tlb.Insert(a.as.ASID, a.va.PageNumber(), pte)
		m.complete(a, Result{OutcomeWalkHit, pte.Get()})

	case pagetable.StateNotPresentLBA:
		if !m.DispatchHW {
			// SW-only scheme: the exception is raised and the kernel's
			// software SMU emulation takes over.
			m.raiseOS(a, false)
			return
		}
		// Both checks in one walk step: present clear, LBA set → request
		// the SMU identified by the socket ID; the pipeline stalls.
		blk := e.Block()
		s := m.smus[blk.SID]
		if s == nil {
			panic(fmt.Sprintf("mmu: PTE names socket %d with no SMU", blk.SID))
		}
		m.stats.HWMisses++
		if a.ms == nil {
			a.ms = m.Tracer.Begin(a.core, uint64(a.va), trace.CauseHWMiss, a.t0)
		}
		if !a.retried {
			a.ms.AddSpan(trace.LayerMMU, "tlb-miss+walk", a.t0, m.eng.Now())
		}
		a.pte = pte
		// The SMU answers no earlier than its request-register latency, so
		// a is still live for prefetch.
		s.HandleMissArg(smu.Request{PUD: pud, PMD: pmd, PTE: pte, Block: blk, Prot: e.Prot(), Core: a.core, Tenant: a.tenant, Trace: a.ms}, missDone, a)
		m.prefetch(a, s)

	case pagetable.StateNotPresentOS:
		m.raiseOS(a, false)
	}
}

// prefetch speculatively dispatches the next virtually-contiguous
// LBA-augmented pages to the SMU. Failures (no free page) are silently
// dropped: a prefetch must never cause an OS fault.
func (m *MMU) prefetch(a *access, s *smu.SMU) {
	for i := 1; i <= m.PrefetchDegree; i++ {
		nva := a.va.PageBase() + pagetable.VAddr(i)*4096
		pud, pmd, pte, ok := a.as.Table.Walk(nva)
		if !ok {
			return
		}
		e := pte.Get()
		if e.State() != pagetable.StateNotPresentLBA || e.Block().LBA == pagetable.AnonFirstTouch {
			return
		}
		blk := e.Block()
		if blk.SID != s.SID {
			return
		}
		m.stats.Prefetches++
		req := smu.Request{PUD: pud, PMD: pmd, PTE: pte, Block: blk, Prot: e.Prot(), Core: a.core, Tenant: a.tenant}
		pc := m.prefetches.Get()
		pc.m, pc.as, pc.va, pc.pte = m, a.as, nva, pte
		s.HandleMissArg(req, prefetchDone, pc)
	}
}

// missDone resumes a dispatched walk when the SMU broadcasts its result
// (the HandleMissArg trampoline bound to a pooled access).
func missDone(arg any, res smu.Result, _ pagetable.Entry) {
	a := arg.(*access)
	m := a.m
	if res != smu.ResultOK {
		// Free page queue empty (or I/O error): raise the exception after
		// all.
		m.stats.HWBounced++
		a.ms.SetCause(trace.CauseBounced)
		m.raiseOS(a, true)
		return
	}
	if a.write {
		// A write miss coalesced on the same PTE may have dirtied it
		// already: count only the clean→dirty transition.
		if e := a.pte.Get(); !e.Dirty() {
			a.pte.Set(e.WithFlags(pagetable.FlagDirty))
			if m.OnDirty != nil {
				m.OnDirty()
			}
		}
	}
	m.tlb.Insert(a.as.ASID, a.va.PageNumber(), a.pte)
	m.complete(a, Result{OutcomeHW, a.pte.Get()})
}

// prefetchDone installs a speculatively fetched page's translation (the
// HandleMissArg trampoline bound to a pooled prefetchCont). Failures are
// dropped: a prefetch must never cause an OS fault.
func prefetchDone(arg any, res smu.Result, _ pagetable.Entry) {
	c := arg.(*prefetchCont)
	m := c.m
	if res == smu.ResultOK {
		m.tlb.Insert(c.as.ASID, c.va.PageNumber(), c.pte)
	}
	*c = prefetchCont{}
	m.prefetches.Put(c)
}

// raiseOS raises the page-fault exception and re-walks once the kernel
// has resolved the fault. The kernel decides what is a segfault, since it
// holds the VMAs; without a kernel every fault is one.
//
//hwdp:hotpath
func (m *MMU) raiseOS(a *access, hwFailed bool) {
	if m.osFault == nil {
		m.complete(a, Result{Outcome: OutcomeBadAddr})
		return
	}
	m.stats.OSFaults++
	if a.ms == nil {
		// Cause is refined by the kernel once it has triaged the fault.
		a.ms = m.Tracer.Begin(a.core, uint64(a.va), trace.CauseUnknown, a.t0)
		a.ms.AddSpan(trace.LayerMMU, "tlb-miss+walk", a.t0, m.eng.Now())
	}
	m.osFault(a.ctx, a.as, a.va, a.write, hwFailed, a.ms, a.resolvedFn)
}

// resolved re-walks once the kernel resolved the fault, or ends the
// access when the kernel refused it.
//
//hwdp:hotpath
func (a *access) resolved(ok bool) {
	if !ok {
		a.m.complete(a, Result{Outcome: OutcomeBadAddr})
		return
	}
	a.retried = true
	a.m.walk(a)
}

// complete ends the access: it closes the miss's trace, releases the
// record (before the callback, which may start another access) and fires
// the callback. After an OS fault the access is reported as one, however
// the re-walk hit.
//
//hwdp:hotpath
func (m *MMU) complete(a *access, r Result) {
	if a.retried && (r.Outcome == OutcomeWalkHit || r.Outcome == OutcomeHW) {
		r.Outcome = OutcomeOSFault
	}
	a.ms.Finish(m.eng.Now())
	done := a.done
	*a = access{m: m, resolvedFn: a.resolvedFn}
	m.accesses.Put(a)
	done(r)
}
