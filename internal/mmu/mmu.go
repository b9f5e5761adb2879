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
// resolves the fault (possibly blocking the thread) and calls done; the
// MMU then re-walks. hwFailed distinguishes Table I row 1 faults from
// hardware misses bounced for lack of a free page (the kernel must refill
// the free page queue in that case). ms is the miss's trace context (nil
// when tracing is disabled); the kernel attaches its phase spans to it.
type OSFaultFunc func(ctx any, as *AddressSpace, va pagetable.VAddr, write, hwFailed bool, ms *trace.Miss, done func())

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

	// walkCb is the pre-bound runWalk callback and walkFree the walkReq
	// free list: together they make walk scheduling allocation-free (one
	// walkReq per in-flight walk, recycled forever). missFree and pfFree
	// recycle the SMU-dispatch continuations the same way (one missCont per
	// in-flight hardware miss, one prefetchCont per speculative fetch), and
	// osFree the OS-fault continuations (one osCont per raised exception).
	walkCb   func(any)
	walkFree []*walkReq
	missFree []*missCont
	pfFree   []*prefetchCont
	osFree   []*osCont
}

// walkReq carries a pending walk's arguments through the engine's pooled
// argument path, replacing a per-TLB-miss closure allocation.
type walkReq struct {
	ctx   any
	as    *AddressSpace
	va    pagetable.VAddr
	write bool
	done  func(Result)
	t0    sim.Time
}

// missCont carries a dispatched hardware miss's completion state through
// the SMU's pooled callback path (HandleMissArg + the missDone
// trampoline), replacing the per-miss closure the MMU used to allocate.
type missCont struct {
	m       *MMU
	ctx     any
	as      *AddressSpace
	va      pagetable.VAddr
	write   bool
	done    func(Result)
	retried bool
	t0      sim.Time
	core    int
	ms      *trace.Miss
	pte     pagetable.EntryRef
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
	r := m.getWalkReq()
	r.ctx, r.as, r.va, r.write, r.done, r.t0 = ctx, as, va, write, done, m.eng.Now()
	m.eng.PostArg(m.WalkLatency, m.walkCb, r)
}

//hwdp:pool acquire walkreq
func (m *MMU) getWalkReq() *walkReq {
	if n := len(m.walkFree); n > 0 {
		r := m.walkFree[n-1]
		m.walkFree = m.walkFree[:n-1]
		return r
	}
	return new(walkReq)
}

//hwdp:pool release walkreq
func (m *MMU) putWalkReq(r *walkReq) {
	*r = walkReq{}
	m.walkFree = append(m.walkFree, r)
}

//hwdp:pool acquire misscont
func (m *MMU) getMissCont() *missCont {
	if n := len(m.missFree); n > 0 {
		c := m.missFree[n-1]
		m.missFree[n-1] = nil
		m.missFree = m.missFree[:n-1]
		return c
	}
	return new(missCont)
}

//hwdp:pool release misscont
func (m *MMU) putMissCont(c *missCont) {
	*c = missCont{}
	m.missFree = append(m.missFree, c)
}

//hwdp:pool acquire prefetchcont
func (m *MMU) getPrefetchCont() *prefetchCont {
	if n := len(m.pfFree); n > 0 {
		c := m.pfFree[n-1]
		m.pfFree[n-1] = nil
		m.pfFree = m.pfFree[:n-1]
		return c
	}
	return new(prefetchCont)
}

//hwdp:pool release prefetchcont
func (m *MMU) putPrefetchCont(c *prefetchCont) {
	*c = prefetchCont{}
	m.pfFree = append(m.pfFree, c)
}

// runWalk unpacks a pooled walkReq and starts the walk proper.
//
//hwdp:hotpath
func (m *MMU) runWalk(arg any) {
	r := arg.(*walkReq)
	ctx, as, va, write, done, t0 := r.ctx, r.as, r.va, r.write, r.done, r.t0
	m.putWalkReq(r)
	m.walk(ctx, as, va, write, done, false, t0, nil)
}

// walk resolves one page-table walk. t0 is when the TLB missed (the walk
// began); ms is the miss's trace context, nil until the walk turns out to
// be a miss (and always nil when tracing is disabled).
func (m *MMU) walk(ctx any, as *AddressSpace, va pagetable.VAddr, write bool, done func(Result), retried bool, t0 sim.Time, ms *trace.Miss) {
	core, tenant := 0, 0
	if cc, okc := ctx.(CoreCarrier); okc {
		core = cc.CoreID()
	}
	if tc, okt := ctx.(TenantCarrier); okt {
		tenant = tc.TenantID()
	}
	pud, pmd, pte, ok := as.Table.Walk(va)
	if !ok {
		// No page-table structure at all: a conventional OS fault (mmap'ed
		// but never populated — the OS allocates tables) or a segfault; the
		// kernel decides.
		m.raiseOS(ctx, as, va, write, false, done, retried, t0, core, ms)
		return
	}
	e := pte.Get()
	switch e.State() {
	case pagetable.StateResident, pagetable.StateResidentUnsynced:
		m.stats.WalkHits++
		flags := pagetable.FlagAccessed
		if write {
			flags |= pagetable.FlagDirty
			if m.OnDirty != nil && !e.Dirty() {
				m.OnDirty()
			}
		}
		pte.Set(e.WithFlags(flags))
		m.tlb.Insert(as.ASID, va.PageNumber(), pte)
		ms.Finish(m.eng.Now())
		done(Result{OutcomeWalkHit, pte.Get()})

	case pagetable.StateNotPresentLBA:
		if !m.DispatchHW {
			// SW-only scheme: the exception is raised and the kernel's
			// software SMU emulation takes over.
			m.raiseOS(ctx, as, va, write, false, done, retried, t0, core, ms)
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
		if ms == nil {
			ms = m.Tracer.Begin(core, uint64(va), trace.CauseHWMiss, t0)
		}
		if !retried {
			ms.AddSpan(trace.LayerMMU, "tlb-miss+walk", t0, m.eng.Now())
		}
		req := smu.Request{PUD: pud, PMD: pmd, PTE: pte, Block: blk, Prot: e.Prot(), Core: core, Tenant: tenant, Trace: ms}
		c := m.getMissCont()
		c.m, c.ctx, c.as, c.va, c.write, c.done = m, ctx, as, va, write, done
		c.retried, c.t0, c.core, c.ms, c.pte = retried, t0, core, ms, pte
		s.HandleMissArg(req, missDone, c)
		m.prefetch(as, va, core, tenant, s)

	case pagetable.StateNotPresentOS:
		m.raiseOS(ctx, as, va, write, false, done, retried, t0, core, ms)
	}
}

// prefetch speculatively dispatches the next virtually-contiguous
// LBA-augmented pages to the SMU. Failures (no free page) are silently
// dropped: a prefetch must never cause an OS fault.
func (m *MMU) prefetch(as *AddressSpace, va pagetable.VAddr, core, tenant int, s *smu.SMU) {
	for i := 1; i <= m.PrefetchDegree; i++ {
		nva := va.PageBase() + pagetable.VAddr(i)*4096
		pud, pmd, pte, ok := as.Table.Walk(nva)
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
		req := smu.Request{PUD: pud, PMD: pmd, PTE: pte, Block: blk, Prot: e.Prot(), Core: core, Tenant: tenant}
		pc := m.getPrefetchCont()
		pc.m, pc.as, pc.va, pc.pte = m, as, nva, pte
		s.HandleMissArg(req, prefetchDone, pc)
	}
}

// missDone resumes a dispatched walk when the SMU broadcasts its result
// (the HandleMissArg trampoline bound to a pooled missCont).
func missDone(arg any, res smu.Result, _ pagetable.Entry) {
	c := arg.(*missCont)
	m := c.m
	switch res {
	case smu.ResultOK:
		if c.write {
			// A write miss coalesced on the same PTE may have dirtied it
			// already: count only the clean→dirty transition.
			if e := c.pte.Get(); !e.Dirty() {
				c.pte.Set(e.WithFlags(pagetable.FlagDirty))
				if m.OnDirty != nil {
					m.OnDirty()
				}
			}
		}
		m.tlb.Insert(c.as.ASID, c.va.PageNumber(), c.pte)
		c.ms.Finish(m.eng.Now())
		done, pte := c.done, c.pte
		// Release before the callback: done may start another access that
		// reuses the record.
		m.putMissCont(c)
		done(Result{OutcomeHW, pte.Get()})
	default:
		// Free page queue empty (or I/O error): raise the
		// exception after all.
		m.stats.HWBounced++
		c.ms.SetCause(trace.CauseBounced)
		ctx, as, va, write, done := c.ctx, c.as, c.va, c.write, c.done
		retried, t0, core, ms := c.retried, c.t0, c.core, c.ms
		m.putMissCont(c)
		m.raiseOS(ctx, as, va, write, true, done, retried, t0, core, ms)
	}
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
	m.putPrefetchCont(c)
}

// raiseOS raises the page-fault exception and re-walks once the kernel
// has resolved the fault. The pending access rides a pooled osCont.
//
//hwdp:hotpath
func (m *MMU) raiseOS(ctx any, as *AddressSpace, va pagetable.VAddr, write, hwFailed bool, done func(Result), retried bool, t0 sim.Time, core int, ms *trace.Miss) {
	if m.osFault == nil || retried {
		ms.Finish(m.eng.Now())
		done(Result{Outcome: OutcomeBadAddr})
		return
	}
	m.stats.OSFaults++
	if ms == nil {
		// Cause is refined by the kernel once it has triaged the fault.
		ms = m.Tracer.Begin(core, uint64(va), trace.CauseUnknown, t0)
		ms.AddSpan(trace.LayerMMU, "tlb-miss+walk", t0, m.eng.Now())
	}
	c := m.getOSCont()
	c.ctx, c.as, c.va, c.write, c.done, c.t0, c.ms = ctx, as, va, write, done, t0, ms
	m.osFault(ctx, as, va, write, hwFailed, ms, c.resolvedFn)
}

// osCont carries an access through the OS fault handler and the re-walk
// that follows it. Its two steps are bound once when the carrier is made.
type osCont struct {
	m     *MMU
	ctx   any
	as    *AddressSpace
	va    pagetable.VAddr
	write bool
	done  func(Result)
	t0    sim.Time
	ms    *trace.Miss

	resolvedFn func()
	rewalkFn   func(Result)
}

//hwdp:pool acquire oscont
func (m *MMU) getOSCont() *osCont {
	if n := len(m.osFree); n > 0 {
		c := m.osFree[n-1]
		m.osFree[n-1] = nil
		m.osFree = m.osFree[:n-1]
		return c
	}
	c := &osCont{m: m}
	c.resolvedFn, c.rewalkFn = c.resolved, c.rewalked
	return c
}

//hwdp:pool release oscont
func (m *MMU) putOSCont(c *osCont) {
	c.ctx, c.as, c.va, c.write, c.done, c.t0, c.ms = nil, nil, 0, false, nil, 0, nil
	m.osFree = append(m.osFree, c)
}

// resolved re-walks once the kernel resolved the fault; a second failure
// is fatal for the access (the kernel would deliver SIGSEGV).
//
//hwdp:hotpath
func (c *osCont) resolved() {
	c.m.walk(c.ctx, c.as, c.va, c.write, c.rewalkFn, true, c.t0, c.ms)
}

// rewalked completes the access. It is reported as an OS fault regardless
// of how the re-walk hit.
//
//hwdp:hotpath
func (c *osCont) rewalked(r Result) {
	if r.Outcome == OutcomeWalkHit || r.Outcome == OutcomeHW {
		r.Outcome = OutcomeOSFault
	}
	m, done := c.m, c.done
	c.ms.Finish(m.eng.Now())
	m.putOSCont(c)
	done(r)
}
