// Package smu implements the Storage Management Unit — the paper's key
// architectural extension (Section III-C). The SMU receives page-miss
// requests from the MMU (the addresses of the PUD, PMD and PTE entries plus
// the device ID and LBA), coalesces duplicates in the PMSHR, takes a frame
// from the free page queue, drives the NVMe host controller to fetch the
// block, updates the page-table entries in hardware, and broadcasts
// completion so stalled page-table walks resume — all without raising an
// exception.
//
// The PMSHR is modeled the way the hardware builds it: a fixed table of
// records, sized at construction and searched associatively (a CAM scan)
// rather than a hash map. A record is reset when its miss retires and
// reused by the next claim of its slot, so steady-state miss handling
// performs no heap allocations (pinned by TestMissPathAllocationBudget).
// The scan visits only the occupied records, kept in an unordered list;
// a PTE has at most one record (admission coalesces), so the order of
// the scan cannot change what it finds.
//
// A miss fires one engine event per pipeline stage (admission, command
// issue, page-table update, notify), except the prefetch refill at the
// end of the doorbell wire: issue takes that slot in the event order as a
// sim.Mark, and the free page queue runs the refill the first time it is
// touched after it, so every operation sees the queue exactly as if the
// refill had been an event.
package smu

import (
	"fmt"
	"math/bits"

	"hwdp/internal/metrics"
	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/ssd"
	"hwdp/internal/trace"
)

// PMSHREntries is the number of page-miss status holding registers; it
// bounds the SMU's concurrent outstanding I/O (the prototype's empirically
// chosen 32).
const PMSHREntries = 32

// PrefetchBufEntries is the free-page prefetch buffer capacity (16 <PFN,
// DMA address> pairs, Section VI-D).
const PrefetchBufEntries = 16

// Result is the outcome of a hardware page-miss handling attempt.
type Result int

// Results. ResultNoFreePage sends the miss back to the OS fault handler,
// which also refills the free page queue.
const (
	ResultOK Result = iota
	ResultNoFreePage
	ResultIOError
)

// String returns the SMU result's display name.
func (r Result) String() string {
	switch r {
	case ResultOK:
		return "ok"
	case ResultNoFreePage:
		return "no-free-page"
	case ResultIOError:
		return "io-error"
	}
	return "?"
}

// Request is a page-miss handling request from the MMU: "the addresses of
// the three entries (PUD entry, PMD entry, and PTE), device ID, and LBA".
// Core identifies the requesting logical core when the SMU runs per-core
// free page queues (Section V future work); with the default single queue
// it is ignored.
type Request struct {
	PUD, PMD, PTE pagetable.EntryRef
	Block         pagetable.BlockAddr
	Prot          pagetable.Prot
	Core          int

	// Tenant is the fleet tenant the miss is charged to (0 on the default
	// single-tenant machine): each handling outcome is counted in the
	// tenant's row, and the QoS layer — when armed — runs weighted-fair
	// admission on it.
	Tenant int

	// Trace is the miss's trace context (nil when tracing is disabled);
	// the SMU attaches its handling-phase spans to it.
	Trace *trace.Miss
}

// DoneArgFunc receives a miss's handling outcome and, on success, the new
// PTE value (the broadcast payload: "the PTE address, the value of the
// PTE, and the result of the page miss handling"), with the caller's
// context argument passed back verbatim. Callers pool their continuation
// state in arg, so the callback can be a plain function or a once-bound
// method value instead of a per-miss closure.
type DoneArgFunc func(arg any, res Result, pte pagetable.Entry)

// doneRef is the SMU's internal completion callback: a DoneArgFunc with
// its context. Storing the pair keeps HandleMissArg closure-free.
type doneRef struct {
	afn DoneArgFunc
	arg any
}

func (d doneRef) call(res Result, pte pagetable.Entry) {
	d.afn(d.arg, res, pte)
}

// Stats are the SMU's event counters.
type Stats struct {
	Handled      uint64 // misses fully handled in hardware
	Coalesced    uint64 // duplicate requests merged into an existing entry
	NoFreePage   uint64 // failures bounced to the OS
	IOErrors     uint64 // error completions observed (including retried ones)
	Backlogged   uint64 // requests that waited for a PMSHR slot
	BufferMisses uint64 // free-page pops that exposed a memory round trip
	AnonZeroFill uint64 // first-touch anonymous misses served without I/O
	LateHits     uint64 // requests whose PTE resolved before admission

	// Error-recovery counters (Section V "Long Latency I/O" degradation).
	Retries      uint64 // command resubmissions after a retryable failure
	Timeouts     uint64 // completion timeouts (command presumed lost)
	UECCFailures uint64 // unrecoverable media errors (retries never help)

	// Frame conservation. Every frame the OS hands the SMU is either
	// installed into a PTE or still held (free queues, prefetch buffers, or
	// a PMSHR entry): FramesAccepted == FramesInstalled + FramesHeld().
	FramesAccepted  uint64 // records accepted by Refill/RefillCore
	FramesInstalled uint64 // frames installed into PTEs (I/O and anon)
	FramesRecycled  uint64 // frames returned to the free queue on failure
	RaceYields      uint64 // installs yielded to an OS-resolved PTE (frame recycled)
}

// RetryPolicy bounds the SMU's hardware error recovery. On a retryable
// completion status the command is resubmitted after Backoff << (attempt-1)
// (exponential backoff), up to MaxRetries resubmissions; exhaustion fails
// the walk to the OS exception path. CmdTimeout, when nonzero, bounds how
// long the SMU waits for any completion after ringing the doorbell — lost
// commands (no completion at all) are aborted and treated as retryable.
// CmdTimeout is zero (disabled) by default: a sensible bound depends on the
// device profile and workload queue depths, so the harness opts in.
type RetryPolicy struct {
	MaxRetries int
	Backoff    sim.Time
	CmdTimeout sim.Time
}

// DefaultRetryPolicy is the configuration used by New: up to 3
// resubmissions with 5 µs initial backoff, no completion timeout.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, Backoff: sim.Micro(5)}
}

// pmshrEntry is one PMSHR record. idx is its fixed slot index and gen is
// kept across misses; every other field is reset when the miss retires.
type pmshrEntry struct {
	idx     int
	pos     int // the record's place in the SMU's live list while occupied
	pteAddr pagetable.EntryAddr
	req     Request
	frame   FrameRecord
	waiters []doneRef

	// I/O-path state (zero for anonymous zero-fill entries).
	dev      *devSlot
	cid      uint16 // current command ID; 0 = no command in flight
	gen      uint16 // the slot's submission generation, kept across misses
	attempts int    // submissions so far, including the first
	timeout  *sim.Event
	newPTE   pagetable.Entry // installed PTE, staged between PT update and notify
	// installed marks that this entry's frame was written into the PTE;
	// finish recycles the frame otherwise (failure, or the PT update
	// yielded to a concurrently OS-installed translation).
	installed bool
}

type devSlot struct {
	qid  uint16
	dev  *ssd.Device
	port *ssd.Port
	nsid uint32
}

// pendingReq is a request not yet in a PMSHR slot: crossing the admission
// latency (a pooled carrier, so no per-miss closure), waiting in the
// backlog for a free slot, or parked by the QoS layer.
type pendingReq struct {
	req  Request
	done doneRef
	at   sim.Time // when the request began waiting (backlog or QoS park)
}

type barrier struct {
	waiting map[pagetable.EntryAddr]bool
	done    func()
}

// SMU is one per-socket storage management unit.
type SMU struct {
	SID    uint8
	eng    *sim.Engine
	timing Timing

	pmshr       []pmshrEntry  // the PMSHR records, one per slot
	live        []*pmshrEntry // the occupied records, unordered: the CAM scans these
	freeIdx     []int
	cidShift    uint // command IDs carry the slot index below this bit
	policy      RetryPolicy
	backlog     []pendingReq
	backlogHead int
	freeqs      []*FreeQueue // one, or one per logical core
	devs        [8]*devSlot
	barriers    []*barrier

	// backlogWait records how long each backlogged request waited for a
	// PMSHR slot (picoseconds); psi, when set, feeds the same waits into
	// machine-wide pressure-stall accounting. Both are recording-only, so
	// they never affect event ordering.
	backlogWait *metrics.Histogram
	psi         *metrics.PSI

	// framesAccepted counts the frames Refill and RefillCore took in.
	framesAccepted uint64

	// tstats holds the per-request counters, one row per fleet tenant
	// (index = Request.Tenant; always at least tenant 0). qos, when
	// non-nil, is the armed weighted-fair admission layer and qosWait its
	// throttle-wait histogram; nil (the default) keeps admission strictly
	// FIFO and every run byte-identical.
	tstats  []TenantStats
	qos     *qosState
	qosWait *metrics.Histogram

	// Pools: admission carriers and completion-notice carriers are
	// recycled so the steady-state miss path allocates nothing. finish
	// notifies a retiring record's waiters from their own list and hands
	// it back here, for the next record it resets.
	reqPool      []*pendingReq
	noticePool   []*doneNotice
	spareWaiters []doneRef

	// Pre-bound event callbacks (built once in NewPerCore) so scheduling a
	// pipeline stage costs no closure allocation.
	admitFn    func(any)
	issueFn    func(any)
	timeoutFn  func(any)
	ptUpdateFn func(any)
	notifyFn   func(any)
	anonFillFn func(any)
	noticeFn   func(any)
}

// NewPerCore builds an SMU with one free page queue per logical core
// (cores > 1) — the paper's Section V option for enforcing per-thread
// memory-management policy. The ring depth is split evenly.
func NewPerCore(eng *sim.Engine, sid uint8, freeQueueDepth, entries, cores int) *SMU {
	if entries < 1 {
		panic("smu: need at least one PMSHR entry")
	}
	if entries > maxEntries {
		panic(fmt.Sprintf("smu: %d PMSHR entries, at most %d", entries, maxEntries))
	}
	if cores < 1 {
		panic("smu: need at least one free page queue")
	}
	s := &SMU{
		SID:         sid,
		eng:         eng,
		timing:      DefaultTiming(),
		pmshr:       make([]pmshrEntry, entries),
		live:        make([]*pmshrEntry, 0, entries),
		cidShift:    uint(bits.Len(uint(entries - 1))),
		policy:      DefaultRetryPolicy(),
		backlogWait: metrics.NewHistogram(),
		qosWait:     metrics.NewHistogram(),
		tstats:      make([]TenantStats, 1),
	}
	per := freeQueueDepth / cores
	if per < 2 {
		per = 2
	}
	for i := 0; i < cores; i++ {
		q := NewFreeQueue(per, PrefetchBufEntries)
		q.eng, q.due = eng, make([]sim.Mark, 0, entries)
		s.freeqs = append(s.freeqs, q)
	}
	for i := entries - 1; i >= 0; i-- {
		s.pmshr[i].idx = i
		s.freeIdx = append(s.freeIdx, i)
	}
	s.admitFn = func(a any) {
		c := a.(*pendingReq)
		req, done := c.req, c.done
		s.putReq(c)
		s.admit(req, done)
	}
	s.noticeFn = func(a any) {
		n := a.(*doneNotice)
		done, res, pte := n.done, n.res, n.pte
		s.putNotice(n)
		done.call(res, pte)
	}
	s.issueFn = func(a any) { s.issue(a.(*pmshrEntry)) }
	s.timeoutFn = func(a any) { s.onTimeout(a.(*pmshrEntry)) }
	s.ptUpdateFn = func(a any) { s.ptUpdate(a.(*pmshrEntry)) }
	s.notifyFn = func(a any) { s.notify(a.(*pmshrEntry)) }
	s.anonFillFn = func(a any) {
		// A first-touch anonymous miss needs no I/O: install the
		// zero-filled frame and broadcast.
		e := a.(*pmshrEntry)
		e.newPTE = s.install(e)
		if e.installed {
			s.tstat(e.req.Tenant).AnonZeroFill++
		}
		s.notify(e)
	}
	return s
}

// queueFor picks the free page queue serving a core.
func (s *SMU) queueFor(core int) *FreeQueue {
	if core < 0 {
		core = 0
	}
	return s.freeqs[core%len(s.freeqs)]
}

// Queues returns the per-core free page queues (length 1 for the default
// global-queue configuration).
func (s *SMU) Queues() []*FreeQueue { return s.freeqs }

// Entries returns the PMSHR size.
func (s *SMU) Entries() int { return len(s.pmshr) }

// Timing returns the component latency model.
func (s *SMU) Timing() Timing { return s.timing }

// Stats returns the counters: each per-request counter summed over the
// tenant rows, and FramesAccepted.
func (s *SMU) Stats() Stats {
	st := Stats{FramesAccepted: s.framesAccepted}
	for i := range s.tstats {
		t := &s.tstats[i]
		st.Handled += t.Handled
		st.Coalesced += t.Coalesced
		st.NoFreePage += t.NoFreePage
		st.IOErrors += t.IOErrors
		st.Backlogged += t.Backlogged
		st.BufferMisses += t.BufferMisses
		st.AnonZeroFill += t.AnonZeroFill
		st.LateHits += t.LateHits
		st.Retries += t.Retries
		st.Timeouts += t.Timeouts
		st.UECCFailures += t.UECCFailures
		st.FramesInstalled += t.FramesInstalled
		st.FramesRecycled += t.FramesRecycled
		st.RaceYields += t.RaceYields
	}
	return st
}

// SetRetryPolicy replaces the error-recovery policy (configure before the
// run starts).
func (s *SMU) SetRetryPolicy(p RetryPolicy) { s.policy = p }

// Policy returns the active error-recovery policy.
func (s *SMU) Policy() RetryPolicy { return s.policy }

// FramesHeld counts the free frames currently in the SMU's custody: free
// queue rings, prefetch buffers, and PMSHR entries mid-handling. Together
// with the stats it states the conservation invariant
// FramesAccepted == FramesInstalled + FramesHeld.
func (s *SMU) FramesHeld() int {
	held := s.Outstanding()
	for _, q := range s.freeqs {
		held += q.Len() + q.Buffered()
	}
	return held
}

// FreeQueue exposes the first free page queue (the only one in the default
// configuration).
func (s *SMU) FreeQueue() *FreeQueue { return s.freeqs[0] }

// Refill pushes frame records into the first free page queue (producer
// side: the OS page-refill routine or kpoold) and lets the hardware
// eagerly prefetch. It returns how many records were accepted.
func (s *SMU) Refill(recs []FrameRecord) int { return s.RefillCore(0, recs) }

// RefillCore pushes frame records into one core's free page queue and
// drains any QoS-parked admissions the new frames unblock.
func (s *SMU) RefillCore(core int, recs []FrameRecord) int {
	q := s.queueFor(core)
	n := q.Push(recs)
	s.framesAccepted += uint64(n)
	q.Prefetch()
	s.qosDrain()
	return n
}

// Outstanding returns the number of in-flight hardware-handled misses.
func (s *SMU) Outstanding() int { return len(s.pmshr) - len(s.freeIdx) }

// BacklogLen returns how many requests are currently waiting for a PMSHR
// slot. The invariant watchdog uses it for the no-lost-wakeup check: a
// non-empty backlog with zero outstanding misses means nobody will ever
// admit the waiters.
func (s *SMU) BacklogLen() int { return len(s.backlog) - s.backlogHead }

// BacklogWait exposes the PMSHR backlog wait-time histogram (picoseconds):
// how long each request that found all slots busy waited for admission.
func (s *SMU) BacklogWait() *metrics.Histogram { return s.backlogWait }

// SetPSI attaches machine-wide pressure-stall accounting; backlog waits
// are reported as StallPMSHRBacklog stalls. Nil (the default) disables.
func (s *SMU) SetPSI(p *metrics.PSI) { s.psi = p }

// lookup scans the PMSHR slots for an outstanding miss on a PTE — the CAM
// lookup the hardware performs on every request.
func (s *SMU) lookup(addr pagetable.EntryAddr) *pmshrEntry {
	for _, e := range s.live {
		if e.pteAddr == addr {
			return e
		}
	}
	return nil
}

// maxEntries bounds the PMSHR so that a command ID keeps at least four
// bits of generation above the slot index.
const maxEntries = 1 << 12

// lookupCID returns the entry owning an in-flight command ID: the slot its
// low bits name, if that slot's current command is this one.
//
//hwdp:hotpath
func (s *SMU) lookupCID(cid uint16) *pmshrEntry {
	idx := int(cid & (1<<s.cidShift - 1))
	if cid == 0 || idx >= len(s.pmshr) || s.pmshr[idx].cid != cid {
		return nil
	}
	return &s.pmshr[idx]
}

// getReq takes a pooled admission carrier.
//
//hwdp:pool acquire req
func (s *SMU) getReq() *pendingReq {
	if n := len(s.reqPool); n > 0 {
		c := s.reqPool[n-1]
		s.reqPool[n-1] = nil
		s.reqPool = s.reqPool[:n-1]
		return c
	}
	return &pendingReq{}
}

// putReq clears an admission carrier and returns it to the pool.
//
//hwdp:pool release req
func (s *SMU) putReq(c *pendingReq) {
	*c = pendingReq{}
	s.reqPool = append(s.reqPool, c)
}

// doneNotice carries a deferred done(res, pte) callback through the
// engine's pooled argument path, replacing a closure allocation on the
// late-hit, no-free-page, and I/O-error notify paths.
type doneNotice struct {
	done doneRef
	res  Result
	pte  pagetable.Entry
}

// getNotice takes a pooled completion-notice carrier.
//
//hwdp:pool acquire notice
func (s *SMU) getNotice() *doneNotice {
	if n := len(s.noticePool); n > 0 {
		c := s.noticePool[n-1]
		s.noticePool[n-1] = nil
		s.noticePool = s.noticePool[:n-1]
		return c
	}
	return &doneNotice{}
}

// putNotice clears a notice carrier and returns it to the pool.
//
//hwdp:pool release notice
func (s *SMU) putNotice(n *doneNotice) {
	*n = doneNotice{}
	s.noticePool = append(s.noticePool, n)
}

// notifySchedule fires done(res, pte) after the SMU-to-core notify latency
// without allocating a closure environment.
//
//hwdp:hotpath
func (s *SMU) notifySchedule(done doneRef, res Result, pte pagetable.Entry) {
	n := s.getNotice()
	n.done, n.res, n.pte = done, res, pte
	s.eng.PostArg(s.timing.Notify, s.noticeFn, n)
}

// AttachDevice initializes one set of NVMe queue descriptor registers for a
// block device: the ID of the isolated queue the OS allocated, the device
// it belongs to, and the namespace to address. The queue raises no
// interrupts; completions arrive via the completion unit's memory snoop.
func (s *SMU) AttachDevice(devID uint8, dev *ssd.Device, qid uint16, nsid uint32) {
	if devID >= 8 {
		panic(fmt.Sprintf("smu: device ID %d out of range", devID))
	}
	if s.devs[devID] != nil {
		panic(fmt.Sprintf("smu: device %d already attached", devID))
	}
	slot := &devSlot{qid: qid, dev: dev, nsid: nsid}
	s.devs[devID] = slot
	// The CQ write plus the completion unit's protocol-handling latency
	// ride the wire as the attachment's irq, so the notify callback runs
	// at the post-snoop handle time.
	slot.port = dev.Attach(qid, s.timing.CQHandle, s.cqHandle)
}

// HandleMissArg processes one page-miss request. done(arg, res, pte) is
// invoked (in virtual time) when handling concludes; for coalesced
// requests it is invoked when the original miss completes. arg is passed
// back verbatim, letting the caller keep its continuation state in a
// pooled record instead of allocating a closure per miss (the MMU's walk
// continuations use this).
//
//hwdp:hotpath
func (s *SMU) HandleMissArg(req Request, done DoneArgFunc, arg any) {
	t := s.timing
	lookupCost := 2*t.ReqRegWrite + t.CAMLookup
	now := s.eng.Now()
	req.Trace.AddSpan(trace.LayerSMU, "req-regs+cam", now, now+lookupCost)
	c := s.getReq()
	c.req, c.done = req, doneRef{afn: done, arg: arg}
	s.eng.PostArg(lookupCost, s.admitFn, c)
}

//hwdp:hotpath
func (s *SMU) admit(req Request, done doneRef) {
	addr := req.PTE.Addr()
	if e := s.lookup(addr); e != nil {
		// Outstanding miss to the same page: coalesce; the pending walk
		// resumes on the broadcast.
		if req.Trace != nil {
			at, ms, orig := s.eng.Now(), req.Trace, done
			//hwdp:ignore hotalloc closure only built when tracing is on (single-miss experiments), never in steady state
			done = doneRef{afn: func(_ any, res Result, pte pagetable.Entry) {
				ms.AddSpan(trace.LayerSMU, "pmshr-coalesce-wait", at, s.eng.Now())
				orig.call(res, pte)
			}}
		}
		//hwdp:ignore hotalloc waiters backing array is retained by the PMSHR record (finish hands every record a cleared list back), so steady-state appends do not allocate
		e.waiters = append(e.waiters, done)
		s.tstat(req.Tenant).Coalesced++
		return
	}
	if cur := req.PTE.Get(); cur.Present() {
		// The miss resolved between the requester's page-table walk and
		// this lookup (the original PMSHR entry already retired). Reading
		// the PTE — which the page-table updater does anyway — catches the
		// race; answer with the installed translation instead of fetching
		// a duplicate frame (which would alias the page).
		s.tstat(req.Tenant).LateHits++
		now := s.eng.Now()
		req.Trace.AddSpan(trace.LayerSMU, "late-hit-notify", now, now+s.timing.Notify)
		s.notifySchedule(done, ResultOK, cur)
		return
	}

	if s.qos != nil && s.qosBlocked(req) {
		// The tenant is over one of its weighted-fair caps: park in its
		// QoS queue; entry retirements and free-queue refills drain it.
		s.qosPark(req, done)
		return
	}

	if len(s.freeIdx) == 0 {
		// All PMSHRs busy: the walk stays pending until a slot frees.
		//hwdp:ignore hotalloc backlog only grows under PMSHR oversubscription and finish recycles it to backlog[:0], retaining capacity
		s.backlog = append(s.backlog, pendingReq{req, done, s.eng.Now()})
		s.tstat(req.Tenant).Backlogged++
		s.psi.BeginStall(metrics.StallPMSHRBacklog, int64(s.eng.Now()))
		return
	}

	// The reserved LBA constant marks a first-touch anonymous miss: the
	// same miss with the device I/O skipped (Section V).
	anon := req.Block.LBA == pagetable.AnonFirstTouch
	var dev *devSlot
	if !anon {
		dev = s.devs[req.Block.DeviceID]
		if dev == nil {
			s.tstat(req.Tenant).IOErrors++
			s.notifySchedule(done, ResultIOError, 0)
			return
		}
	}

	freeq := s.queueFor(req.Core)
	rec, fromBuf, ok := freeq.Pop()
	if !ok {
		// Free page queue empty: invalidate and fail to the OS, which
		// handles the fault and refills the queue.
		s.tstat(req.Tenant).NoFreePage++
		s.notifySchedule(done, ResultNoFreePage, 0)
		return
	}
	fetchCost := s.timing.FreePageHit
	if !fromBuf {
		fetchCost = s.timing.FreePageMem
		s.tstat(req.Tenant).BufferMisses++
	}

	// An anonymous fill, too, holds its slot for the few cycles it takes,
	// so that a concurrent duplicate miss coalesces instead of claiming a
	// second frame (no page aliases).
	s.qosCharge(req.Tenant, !anon)
	idx := s.freeIdx[len(s.freeIdx)-1]
	s.freeIdx = s.freeIdx[:len(s.freeIdx)-1]
	e := &s.pmshr[idx]
	e.pteAddr, e.req, e.frame, e.dev = addr, req, rec, dev
	//hwdp:ignore hotalloc waiters backing array is retained by the PMSHR record (finish hands every record a cleared list back), so steady-state appends do not allocate
	e.waiters = append(e.waiters, done)
	// live has the PMSHR's capacity and holds only occupied records, so
	// reslicing by one never outgrows it.
	e.pos = len(s.live)
	s.live = s.live[:e.pos+1]
	s.live[e.pos] = e

	t := s.timing
	if anon {
		req.Trace.SetCause(trace.CauseAnonZeroFill)
	}
	now := s.eng.Now()
	written := fetchCost + t.PMSHRWrite
	req.Trace.AddSpan(trace.LayerSMU, "free-page-fetch", now, now+fetchCost)
	req.Trace.AddSpan(trace.LayerSMU, "pmshr-write", now+fetchCost, now+written)
	if anon {
		filled := written + t.PTUpdate
		req.Trace.AddSpan(trace.LayerSMU, "pt-update", now+written, now+filled)
		req.Trace.AddSpan(trace.LayerSMU, "notify-mmu", now+filled, now+filled+t.Notify)
		s.eng.PostArg(filled+t.Notify, s.anonFillFn, e)
		return
	}
	req.Trace.AddSpan(trace.LayerNVMe, "nvme-cmd-write", now+written, now+written+t.CmdWrite)
	s.eng.PostArg(written+t.CmdWrite, s.issueFn, e)
}

// nextCID gives an entry's next submission its command identifier: the
// slot index in the low cidShift bits and the slot's generation, never 0,
// above them. Each submission — including retries of the same miss — bumps
// the generation, so a late completion of an abandoned attempt (e.g. one
// that raced its own timeout) cannot be mistaken for the retry's
// completion, and a CID is never 0 (no command).
//
//hwdp:hotpath
func (s *SMU) nextCID(e *pmshrEntry) uint16 {
	gens := 1<<(16-s.cidShift) - 1 // the generations that fit above the index
	e.gen = e.gen%uint16(gens) + 1
	return e.gen<<s.cidShift | uint16(e.idx)
}

// issue submits (or resubmits) the read command for a PMSHR entry, arms
// the completion timeout and makes the prefetch refill due at the end of
// the doorbell wire.
//
//hwdp:hotpath
func (s *SMU) issue(e *pmshrEntry) {
	e.attempts++
	e.cid = s.nextCID(e)
	cmd := nvme.Command{
		Opcode: nvme.OpRead,
		CID:    e.cid,
		NSID:   e.dev.nsid,
		PRP1:   e.frame.DMA,
		SLBA:   e.req.Block.LBA,
		NLB:    0, // one 4 KiB block, no PRP list
		Trace:  e.req.Trace,
	}
	now := s.eng.Now()
	if s.policy.CmdTimeout > 0 {
		// Armed before the doorbell rings, so a timeout due exactly at
		// media done fires before the device retires the command and
		// still aborts it. Pooled handle: onTimeout nils e.timeout as its
		// first action and every Cancel site nils it immediately after, so
		// the handle never outlives the event.
		e.timeout = s.eng.AtArgPooled(now+ssd.DoorbellWire+s.policy.CmdTimeout, s.timeoutFn, e)
	}
	e.req.Trace.AddSpan(trace.LayerNVMe, "sq-doorbell", now, now+ssd.DoorbellWire)
	e.dev.dev.Deliver(e.dev.port, cmd)
	// Once the doorbell write has crossed the wire, refill the prefetch
	// buffer during the device I/O time: this is what hides the memory
	// latency of free-page fetches.
	s.queueFor(e.req.Core).prefetchAt(s.eng.MarkAfter(ssd.DoorbellWire))
}

// onTimeout fires when a submitted command produced no completion within
// the policy window: the command is presumed lost inside the device. The
// SMU aborts it (guaranteeing no late DMA into the frame if the abort
// lands) and runs the retry policy with a host-synthesized timeout status.
//
//hwdp:hotpath
func (s *SMU) onTimeout(e *pmshrEntry) {
	e.timeout = nil
	s.tstat(e.req.Tenant).Timeouts++
	e.req.Trace.Mark(trace.LayerNVMe, "cmd-timeout", s.eng.Now())
	e.dev.dev.Abort(e.dev.qid, e.cid)
	s.recover(e, nvme.StatusHostTimeout)
}

// recover applies the retry policy to a failed attempt: retryable statuses
// are resubmitted with exponential backoff until the budget is spent;
// everything else — and exhaustion — fails the walk to the OS exception
// path (the paper's graceful degradation), recycling the frame via finish.
//
//hwdp:hotpath
func (s *SMU) recover(e *pmshrEntry, status uint16) {
	if nvme.StatusRetryable(status) && e.attempts <= s.policy.MaxRetries {
		e.cid = 0
		backoff := s.policy.Backoff << (e.attempts - 1)
		s.tstat(e.req.Tenant).Retries++
		now := s.eng.Now()
		e.req.Trace.AddSpan(trace.LayerSMU, "retry-backoff", now, now+backoff)
		s.eng.PostArg(backoff, s.issueFn, e)
		return
	}
	if status == nvme.StatusUncorrectable || status == nvme.StatusWriteFault {
		s.tstat(e.req.Tenant).UECCFailures++
	}
	s.finish(e, ResultIOError, 0)
}

// cqHandle is the completion unit: the memory-write snoop of the CQ entry
// cp plus the protocol-handling latency arrive together over the
// attachment's completion wire (Attach's irq), so by the time this runs
// CQHandle has elapsed. It updates the page table and broadcasts.
//
//hwdp:hotpath
func (s *SMU) cqHandle(cp nvme.Completion) {
	t := s.timing
	// The snoop that scheduled us fired exactly CQHandle ago.
	snoopAt := s.eng.Now() - t.CQHandle
	e := s.lookupCID(cp.CID)
	if e == nil {
		// Completion for an abandoned attempt (the SMU timed out and
		// moved on, or already failed the walk): drop it.
		return
	}
	e.req.Trace.AddSpan(trace.LayerNVMe, "cq-handle", snoopAt, s.eng.Now())
	if e.timeout != nil {
		e.timeout.Cancel()
		e.timeout = nil
	}
	if !cp.OK() {
		s.tstat(e.req.Tenant).IOErrors++
		e.req.Trace.Mark(trace.LayerNVMe, "error-completion", s.eng.Now())
		s.recover(e, cp.Status)
		return
	}
	ptAt := s.eng.Now()
	e.req.Trace.AddSpan(trace.LayerSMU, "pt-update", ptAt, ptAt+t.PTUpdate)
	s.eng.PostArg(t.PTUpdate, s.ptUpdateFn, e)
}

// ptUpdate installs the fetched frame's PTE and schedules the broadcast.
//
//hwdp:hotpath
func (s *SMU) ptUpdate(e *pmshrEntry) {
	e.newPTE = s.install(e)
	notifyAt := s.eng.Now()
	e.req.Trace.AddSpan(trace.LayerSMU, "notify-mmu", notifyAt, notifyAt+s.timing.Notify)
	s.eng.PostArg(s.timing.Notify, s.notifyFn, e)
}

// install is the locked PTE update that ends every handled miss — "replace
// the LBA field with the PFN" — leaving the PTE's LBA bit set so kpted
// later updates OS metadata, and marking the upper levels. It returns the
// PTE the stalled walks resume with. The write is a compare-exchange: if
// the OS fault path resolved the page meanwhile (a duplicate of this miss
// bounced to the exception path earlier and won), installing over its
// translation would leak the OS's frame. install yields to it instead and
// leaves e.installed false, so finish recycles the SMU's frame.
//
//hwdp:hotpath
func (s *SMU) install(e *pmshrEntry) pagetable.Entry {
	if cur := e.req.PTE.Get(); cur.Present() {
		s.tstat(e.req.Tenant).RaceYields++
		return cur
	}
	pte := pagetable.MakePresent(e.frame.PFN, e.req.Prot, false)
	e.req.PTE.Set(pte)
	e.installed = true
	pagetable.MarkUnsynced(e.req.PUD, e.req.PMD)
	return pte
}

// notify broadcasts a handled miss's PTE to its stalled walks.
//
//hwdp:hotpath
func (s *SMU) notify(e *pmshrEntry) {
	s.tstat(e.req.Tenant).Handled++
	anon, core := e.dev == nil, e.req.Core
	s.finish(e, ResultOK, e.newPTE)
	if anon {
		// No device time hid the free-page fetch: refill the prefetch
		// buffer now.
		s.queueFor(core).Prefetch()
	}
}

//hwdp:hotpath
func (s *SMU) finish(e *pmshrEntry, res Result, pte pagetable.Entry) {
	if e.timeout != nil {
		e.timeout.Cancel()
		e.timeout = nil
	}
	s.qosRelease(e.req.Tenant, e.dev != nil)
	if e.installed {
		s.tstat(e.req.Tenant).FramesInstalled++
	} else {
		// The popped frame was never installed (failure, or the PT
		// update yielded to an OS-resolved PTE): return it to the free
		// queue so it cannot leak (accepted == installed + held).
		s.queueFor(e.req.Core).Requeue(e.frame)
		s.tstat(e.req.Tenant).FramesRecycled++
	}
	// Reset the record before its slot goes back on the free list: a
	// waiter may admit a new miss into the slot at once. The waiters are
	// notified from their own list, which then becomes the spare.
	addr, waiters := e.pteAddr, e.waiters
	last := len(s.live) - 1
	moved := s.live[last]
	moved.pos = e.pos
	s.live[e.pos] = moved
	s.live[last] = nil
	s.live = s.live[:last]
	*e = pmshrEntry{idx: e.idx, gen: e.gen, waiters: s.spareWaiters}
	s.spareWaiters = nil
	//hwdp:ignore hotalloc freeIdx was filled to full PMSHR depth at construction; append never exceeds that retained capacity
	s.freeIdx = append(s.freeIdx, e.idx)
	for i, w := range waiters {
		waiters[i] = doneRef{}
		w.call(res, pte)
	}
	s.spareWaiters = waiters[:0]
	s.checkBarriers(addr)
	// Admit one backlogged request per freed slot.
	if s.backlogHead < len(s.backlog) {
		item := s.backlog[s.backlogHead]
		s.backlog[s.backlogHead] = pendingReq{}
		s.backlogHead++
		if s.backlogHead == len(s.backlog) {
			s.backlog = s.backlog[:0]
			s.backlogHead = 0
		}
		now := s.eng.Now()
		item.req.Trace.AddSpan(trace.LayerSMU, "pmshr-backlog-wait", item.at, now)
		s.backlogWait.Record(int64(now - item.at))
		s.psi.EndStall(metrics.StallPMSHRBacklog, int64(now), int64(now-item.at))
		s.admit(item.req, item.done)
	}
	s.qosDrain()
}

// Barrier invokes done once no outstanding miss references any of the given
// PTE addresses — the "SMU barrier" the modified munmap()/msync() issue
// before unmapping (Section IV-C). With no matching outstanding misses it
// fires immediately (same timestep).
func (s *SMU) Barrier(addrs []pagetable.EntryAddr, done func()) {
	waiting := make(map[pagetable.EntryAddr]bool)
	for _, a := range addrs {
		if s.lookup(a) != nil {
			waiting[a] = true
		}
	}
	if len(waiting) == 0 {
		s.eng.Post(0, done)
		return
	}
	s.barriers = append(s.barriers, &barrier{waiting: waiting, done: done})
}

func (s *SMU) checkBarriers(addr pagetable.EntryAddr) {
	kept := s.barriers[:0]
	for _, b := range s.barriers {
		delete(b.waiting, addr)
		if len(b.waiting) == 0 {
			s.eng.Post(0, b.done)
			continue
		}
		//hwdp:ignore hotalloc kept reuses barriers' backing array (s.barriers[:0]); the filter never outgrows it
		kept = append(kept, b)
	}
	s.barriers = kept
}
