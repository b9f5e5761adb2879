// Package smu implements the Storage Management Unit — the paper's key
// architectural extension (Section III-C). The SMU receives page-miss
// requests from the MMU (the addresses of the PUD, PMD and PTE entries plus
// the device ID and LBA), coalesces duplicates in the PMSHR, takes a frame
// from the free page queue, drives the NVMe host controller to fetch the
// block, updates the page-table entries in hardware, and broadcasts
// completion so stalled page-table walks resume — all without raising an
// exception.
//
// The PMSHR is modeled the way the hardware builds it: a fixed array of
// slots searched associatively (a CAM scan) rather than a hash map, and
// slot state is pooled and recycled, so steady-state miss handling
// performs no heap allocations (pinned by TestMissPathAllocationBudget).
package smu

import (
	"fmt"

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
	// single-tenant machine): per-tenant counters mirror each handling
	// outcome, and the QoS layer — when armed — runs weighted-fair
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

type pmshrEntry struct {
	idx     int
	pteAddr pagetable.EntryAddr
	req     Request
	frame   FrameRecord
	waiters []doneRef

	// I/O-path state (zero for anonymous zero-fill entries).
	dev      *devSlot
	cid      uint16 // current command ID; 0 = no command in flight
	attempts int    // submissions so far, including the first
	timeout  *sim.Event
	newPTE   pagetable.Entry // installed PTE, staged between PT update and notify
	// installed marks that this entry's frame was written into the PTE;
	// finish recycles the frame otherwise (failure, or the PT update
	// yielded to a concurrently OS-installed translation).
	installed bool
}

type devSlot struct {
	qp   *nvme.QueuePair
	dev  *ssd.Device
	port *ssd.Port
	nsid uint32
}

// pendingReq carries a request across the admission latency without
// building a per-miss closure; carriers are pooled.
type pendingReq struct {
	req  Request
	done doneRef
}

type backlogItem struct {
	req  Request
	done doneRef
	at   sim.Time // when the request began waiting for a PMSHR slot
}

type barrier struct {
	waiting map[pagetable.EntryAddr]bool
	done    func()
}

// SMU is one per-socket storage management unit.
type SMU struct {
	SID     uint8
	eng     *sim.Engine
	timing  Timing
	entries int

	slots       []*pmshrEntry // the PMSHR proper: nil = free slot
	freeIdx     []int
	nextCID     uint16
	policy      RetryPolicy
	backlog     []backlogItem
	backlogHead int
	freeqs      []*FreeQueue // one, or one per logical core
	devs        [8]*devSlot
	stats       Stats
	barriers    []*barrier

	// backlogWait records how long each backlogged request waited for a
	// PMSHR slot (picoseconds); psi, when set, feeds the same waits into
	// machine-wide pressure-stall accounting. Both are recording-only, so
	// they never affect event ordering.
	backlogWait *metrics.Histogram
	psi         *metrics.PSI

	// tstats mirrors the per-request counters per fleet tenant (index =
	// Request.Tenant; always at least tenant 0). qos, when non-nil, is the
	// armed weighted-fair admission layer and qosWait its throttle-wait
	// histogram; nil (the default) keeps admission strictly FIFO and every
	// run byte-identical.
	tstats  []TenantStats
	qos     *qosState
	qosWait *metrics.Histogram

	// Pools: PMSHR entry state, admission carriers, and completion-notice
	// carriers are recycled so the steady-state miss path allocates
	// nothing.
	entryPool  []*pmshrEntry
	reqPool    []*pendingReq
	noticePool []*doneNotice

	// Pre-bound event callbacks (built once in NewPerCore) so scheduling a
	// pipeline stage costs no closure allocation.
	admitFn    func(any)
	issueFn    func(any)
	doorbellFn func(any)
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
	if cores < 1 {
		panic("smu: need at least one free page queue")
	}
	s := &SMU{
		SID:         sid,
		eng:         eng,
		timing:      DefaultTiming(),
		entries:     entries,
		slots:       make([]*pmshrEntry, entries),
		nextCID:     1,
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
		s.freeqs = append(s.freeqs, NewFreeQueue(per, PrefetchBufEntries))
	}
	for i := entries - 1; i >= 0; i-- {
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
	s.doorbellFn = func(a any) {
		// The command itself is already crossing the doorbell wire (issue
		// hands it to Device.Deliver); this stage models the SMU-side tail
		// of the doorbell write. Opportunistically refill the prefetch
		// buffer during the device I/O time — this is what hides the memory
		// latency of free-page fetches.
		s.queueFor(a.(*pmshrEntry).req.Core).Prefetch()
	}
	s.timeoutFn = func(a any) { s.onTimeout(a.(*pmshrEntry)) }
	s.ptUpdateFn = func(a any) { s.ptUpdate(a.(*pmshrEntry)) }
	s.notifyFn = func(a any) {
		e := a.(*pmshrEntry)
		s.stats.Handled++
		s.tstat(e.req.Tenant).Handled++
		s.finish(e, ResultOK, e.newPTE)
	}
	s.anonFillFn = func(a any) { s.anonFill(a.(*pmshrEntry)) }
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
func (s *SMU) Entries() int { return s.entries }

// Timing returns the component latency model.
func (s *SMU) Timing() Timing { return s.timing }

// Stats returns a copy of the counters.
func (s *SMU) Stats() Stats { return s.stats }

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
	s.stats.FramesAccepted += uint64(n)
	q.Prefetch()
	s.qosDrain()
	return n
}

// Outstanding returns the number of in-flight hardware-handled misses.
func (s *SMU) Outstanding() int { return s.entries - len(s.freeIdx) }

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
	for _, e := range s.slots {
		if e != nil && e.pteAddr == addr {
			return e
		}
	}
	return nil
}

// lookupCID scans the slots for the entry owning an in-flight command ID.
func (s *SMU) lookupCID(cid uint16) *pmshrEntry {
	for _, e := range s.slots {
		if e != nil && e.cid == cid {
			return e
		}
	}
	return nil
}

// getEntry takes a pooled PMSHR entry record (or allocates the pool's
// first few).
//
//hwdp:pool acquire entry
func (s *SMU) getEntry() *pmshrEntry {
	if n := len(s.entryPool); n > 0 {
		e := s.entryPool[n-1]
		s.entryPool[n-1] = nil
		s.entryPool = s.entryPool[:n-1]
		return e
	}
	return &pmshrEntry{}
}

// putEntry clears an entry and returns it to the pool.
//
//hwdp:pool release entry
func (s *SMU) putEntry(e *pmshrEntry) {
	w := e.waiters
	for i := range w {
		w[i] = doneRef{}
	}
	*e = pmshrEntry{}
	e.waiters = w[:0]
	s.entryPool = append(s.entryPool, e)
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
	c.req, c.done = Request{}, doneRef{}
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
// block device: the isolated queue pair the OS allocated, the device it
// belongs to, and the namespace to address. Interrupts are disabled on the
// pair; completions arrive via the completion unit's memory snoop.
func (s *SMU) AttachDevice(devID uint8, dev *ssd.Device, qp *nvme.QueuePair, nsid uint32) {
	if devID >= 8 {
		panic(fmt.Sprintf("smu: device ID %d out of range", devID))
	}
	if s.devs[devID] != nil {
		panic(fmt.Sprintf("smu: device %d already attached", devID))
	}
	qp.InterruptsEnabled = false
	slot := &devSlot{qp: qp, dev: dev, nsid: nsid}
	s.devs[devID] = slot
	// The CQ write plus the completion unit's protocol-handling latency
	// ride the wire as the attachment's irq, so the notify callback runs
	// at the post-snoop handle time.
	slot.port = dev.Attach(qp, s.timing.CQHandle, func(cp nvme.Completion) {
		s.cqHandle(slot)
	})
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
		//hwdp:ignore hotalloc waiters backing array is retained by the pooled entry (putEntry keeps capacity), so steady-state appends do not allocate
		e.waiters = append(e.waiters, done)
		s.stats.Coalesced++
		s.tstat(req.Tenant).Coalesced++
		return
	}
	if cur := req.PTE.Get(); cur.Present() {
		// The miss resolved between the requester's page-table walk and
		// this lookup (the original PMSHR entry already retired). Reading
		// the PTE — which the page-table updater does anyway — catches the
		// race; answer with the installed translation instead of fetching
		// a duplicate frame (which would alias the page).
		s.stats.LateHits++
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
		s.backlog = append(s.backlog, backlogItem{req, done, s.eng.Now()})
		s.stats.Backlogged++
		s.tstat(req.Tenant).Backlogged++
		s.psi.BeginStall(metrics.StallPMSHRBacklog, int64(s.eng.Now()))
		return
	}

	if req.Block.LBA == pagetable.AnonFirstTouch {
		s.admitAnon(req, done)
		return
	}

	dev := s.devs[req.Block.DeviceID]
	if dev == nil {
		s.stats.IOErrors++
		s.tstat(req.Tenant).IOErrors++
		s.notifySchedule(done, ResultIOError, 0)
		return
	}

	freeq := s.queueFor(req.Core)
	rec, fromBuf, ok := freeq.Pop()
	if !ok {
		// Free page queue empty: invalidate and fail to the OS, which
		// handles the fault and refills the queue.
		s.stats.NoFreePage++
		s.tstat(req.Tenant).NoFreePage++
		s.notifySchedule(done, ResultNoFreePage, 0)
		return
	}
	fetchCost := s.timing.FreePageHit
	if !fromBuf {
		fetchCost = s.timing.FreePageMem
		s.stats.BufferMisses++
		s.tstat(req.Tenant).BufferMisses++
	}

	s.qosCharge(req.Tenant, true)
	idx := s.freeIdx[len(s.freeIdx)-1]
	s.freeIdx = s.freeIdx[:len(s.freeIdx)-1]
	e := s.getEntry()
	e.idx, e.pteAddr, e.req, e.frame, e.dev = idx, addr, req, rec, dev
	//hwdp:ignore hotalloc waiters backing array is retained by the pooled entry (putEntry keeps capacity), so steady-state appends do not allocate
	e.waiters = append(e.waiters, done)
	s.slots[idx] = e

	t := s.timing
	now := s.eng.Now()
	req.Trace.AddSpan(trace.LayerSMU, "free-page-fetch", now, now+fetchCost)
	req.Trace.AddSpan(trace.LayerSMU, "pmshr-write", now+fetchCost, now+fetchCost+t.PMSHRWrite)
	req.Trace.AddSpan(trace.LayerNVMe, "nvme-cmd-write", now+fetchCost+t.PMSHRWrite, now+fetchCost+t.PMSHRWrite+t.CmdWrite)
	issueCost := fetchCost + t.PMSHRWrite + t.CmdWrite
	s.eng.PostArg(issueCost, s.issueFn, e)
}

// allocCID hands out a command identifier not currently in flight. Each
// submission — including retries of the same miss — gets a fresh CID, so a
// late completion of an abandoned attempt (e.g. one that raced its own
// timeout) can never be mistaken for the retry's completion.
//
//hwdp:hotpath
func (s *SMU) allocCID() uint16 {
	for {
		cid := s.nextCID
		s.nextCID++
		if s.nextCID == 0 {
			s.nextCID = 1
		}
		if cid == 0 {
			continue
		}
		if s.lookupCID(cid) == nil {
			return cid
		}
	}
}

// issue submits (or resubmits) the read command for a PMSHR entry and arms
// the completion timeout.
//
//hwdp:hotpath
func (s *SMU) issue(e *pmshrEntry) {
	e.attempts++
	e.cid = s.allocCID()
	cmd := nvme.Command{
		Opcode: nvme.OpRead,
		CID:    e.cid,
		NSID:   e.dev.nsid,
		PRP1:   e.frame.DMA,
		SLBA:   e.req.Block.LBA,
		NLB:    0, // one 4 KiB block, no PRP list
		Tenant: uint16(e.req.Tenant),
		Trace:  e.req.Trace,
	}
	s.tstat(e.req.Tenant).Submitted++
	if err := e.dev.qp.Submit(cmd); err != nil {
		// Isolated queue sized to PMSHR depth: overflow is a model bug.
		panic(fmt.Sprintf("smu: submit failed: %v", err))
	}
	t := s.timing
	now := s.eng.Now()
	e.req.Trace.AddSpan(trace.LayerNVMe, "sq-doorbell", now, now+t.Doorbell)
	// The host side owns the rings: pop the entry just submitted and put
	// it on the doorbell wire. Deliver before the doorbell-tail stage so
	// device service precedes the prefetch when both land on the same
	// timestamp.
	wcmd, ok := e.dev.qp.PopSQ()
	if !ok {
		panic("smu: submitted command missing from SQ")
	}
	e.dev.dev.Deliver(e.dev.port, wcmd, t.Doorbell)
	s.eng.PostArg(t.Doorbell, s.doorbellFn, e)
	if s.policy.CmdTimeout > 0 {
		// Pooled handle: onTimeout nils e.timeout as its first action and
		// every Cancel site nils it immediately after, so the handle never
		// outlives the event.
		e.timeout = s.eng.AtArgPooled(now+t.Doorbell+s.policy.CmdTimeout, s.timeoutFn, e)
	}
}

// onTimeout fires when a submitted command produced no completion within
// the policy window: the command is presumed lost inside the device. The
// SMU aborts it (guaranteeing no late DMA into the frame if the abort
// lands) and runs the retry policy with a host-synthesized timeout status.
//
//hwdp:hotpath
func (s *SMU) onTimeout(e *pmshrEntry) {
	e.timeout = nil
	s.stats.Timeouts++
	s.tstat(e.req.Tenant).Timeouts++
	e.req.Trace.Mark(trace.LayerNVMe, "cmd-timeout", s.eng.Now())
	e.dev.dev.Abort(e.dev.qp.ID, e.cid)
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
		s.stats.Retries++
		s.tstat(e.req.Tenant).Retries++
		now := s.eng.Now()
		e.req.Trace.AddSpan(trace.LayerSMU, "retry-backoff", now, now+backoff)
		s.eng.PostArg(backoff, s.issueFn, e)
		return
	}
	if status == nvme.StatusUncorrectable || status == nvme.StatusWriteFault {
		s.stats.UECCFailures++
		s.tstat(e.req.Tenant).UECCFailures++
	}
	s.finish(e, ResultIOError, 0)
}

// admitAnon serves a first-touch anonymous miss: the reserved LBA constant
// tells the SMU to bypass I/O entirely (Section V). A zero-filled frame
// from the free page queue is installed directly; the whole miss costs a
// handful of cycles instead of a device access.
//
//hwdp:hotpath
func (s *SMU) admitAnon(req Request, done doneRef) {
	freeq := s.queueFor(req.Core)
	rec, fromBuf, ok := freeq.Pop()
	if !ok {
		s.stats.NoFreePage++
		s.tstat(req.Tenant).NoFreePage++
		s.notifySchedule(done, ResultNoFreePage, 0)
		return
	}
	fetchCost := s.timing.FreePageHit
	if !fromBuf {
		fetchCost = s.timing.FreePageMem
		s.stats.BufferMisses++
		s.tstat(req.Tenant).BufferMisses++
	}
	// Occupy a PMSHR entry for the handful of cycles the fill takes so
	// that a concurrent duplicate miss coalesces instead of claiming a
	// second frame (no page aliases, same as the I/O path).
	s.qosCharge(req.Tenant, false)
	addr := req.PTE.Addr()
	idx := s.freeIdx[len(s.freeIdx)-1]
	s.freeIdx = s.freeIdx[:len(s.freeIdx)-1]
	e := s.getEntry()
	e.idx, e.pteAddr, e.req, e.frame = idx, addr, req, rec
	//hwdp:ignore hotalloc waiters backing array is retained by the pooled entry (putEntry keeps capacity), so steady-state appends do not allocate
	e.waiters = append(e.waiters, done)
	s.slots[idx] = e

	t := s.timing
	req.Trace.SetCause(trace.CauseAnonZeroFill)
	now := s.eng.Now()
	req.Trace.AddSpan(trace.LayerSMU, "free-page-fetch", now, now+fetchCost)
	req.Trace.AddSpan(trace.LayerSMU, "pmshr-write", now+fetchCost, now+fetchCost+t.PMSHRWrite)
	req.Trace.AddSpan(trace.LayerSMU, "pt-update", now+fetchCost+t.PMSHRWrite, now+fetchCost+t.PMSHRWrite+t.PTUpdate)
	req.Trace.AddSpan(trace.LayerSMU, "notify-mmu", now+fetchCost+t.PMSHRWrite+t.PTUpdate, now+fetchCost+t.PMSHRWrite+t.PTUpdate+t.Notify)
	s.eng.PostArg(fetchCost+t.PMSHRWrite+t.PTUpdate+t.Notify, s.anonFillFn, e)
}

// anonFill completes a first-touch anonymous miss: install the zero-filled
// frame's PTE and broadcast.
//
//hwdp:hotpath
func (s *SMU) anonFill(e *pmshrEntry) {
	// Same locked PTE update as ptUpdate: a bounced duplicate of this
	// miss may have zero-filled the page through the OS path meanwhile.
	if cur := e.req.PTE.Get(); cur.Present() {
		s.stats.RaceYields++
		s.stats.Handled++
		ts := s.tstat(e.req.Tenant)
		ts.RaceYields++
		ts.Handled++
		core := e.req.Core
		s.finish(e, ResultOK, cur)
		s.queueFor(core).Prefetch()
		return
	}
	pte := pagetable.MakePresent(e.frame.PFN, e.req.Prot, false)
	e.req.PTE.Set(pte)
	e.installed = true
	pagetable.MarkUnsynced(e.req.PUD, e.req.PMD)
	s.stats.AnonZeroFill++
	s.stats.Handled++
	ts := s.tstat(e.req.Tenant)
	ts.AnonZeroFill++
	ts.Handled++
	core := e.req.Core
	s.finish(e, ResultOK, pte)
	s.queueFor(core).Prefetch()
}

// cqHandle is the completion unit: the memory-write snoop of the CQ entry
// plus the protocol-handling latency arrive together over the attachment's
// completion wire (Attach's irq), so by the time this runs the CQ entry
// is visible and CQHandle has elapsed. It updates the page table and
// broadcasts.
//
//hwdp:hotpath
func (s *SMU) cqHandle(dev *devSlot) {
	t := s.timing
	// The snoop that scheduled us fired exactly CQHandle ago.
	snoopAt := s.eng.Now() - t.CQHandle
	cp, ok := dev.qp.PollCQ()
	if !ok {
		return // spurious snoop
	}
	dev.qp.ConsumeCQ()
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
		s.stats.IOErrors++
		s.tstat(e.req.Tenant).IOErrors++
		e.req.Trace.Mark(trace.LayerNVMe, "error-completion", s.eng.Now())
		s.recover(e, cp.Status)
		return
	}
	ptAt := s.eng.Now()
	e.req.Trace.AddSpan(trace.LayerSMU, "pt-update", ptAt, ptAt+t.PTUpdate)
	s.eng.PostArg(t.PTUpdate, s.ptUpdateFn, e)
}

// ptUpdate installs the fetched frame's PTE — "replace the LBA field with
// the PFN" — leaving the PTE's LBA bit set so kpted later updates OS
// metadata, and marking the upper levels; then schedules the broadcast.
//
//hwdp:hotpath
func (s *SMU) ptUpdate(e *pmshrEntry) {
	t := s.timing
	// The PTE write is a locked compare-exchange: if the OS fault path
	// resolved the page while the I/O was in flight (a duplicate of this
	// miss bounced to the exception path earlier and won), installing
	// over its translation would leak the OS's frame. Yield: complete
	// the walk with the OS's PTE; finish recycles our fetched frame.
	if cur := e.req.PTE.Get(); cur.Present() {
		s.stats.RaceYields++
		s.tstat(e.req.Tenant).RaceYields++
		e.newPTE = cur
		notifyAt := s.eng.Now()
		e.req.Trace.AddSpan(trace.LayerSMU, "notify-mmu", notifyAt, notifyAt+t.Notify)
		s.eng.PostArg(t.Notify, s.notifyFn, e)
		return
	}
	pte := pagetable.MakePresent(e.frame.PFN, e.req.Prot, false)
	e.req.PTE.Set(pte)
	e.installed = true
	e.newPTE = pte
	pagetable.MarkUnsynced(e.req.PUD, e.req.PMD)
	notifyAt := s.eng.Now()
	e.req.Trace.AddSpan(trace.LayerSMU, "notify-mmu", notifyAt, notifyAt+t.Notify)
	s.eng.PostArg(t.Notify, s.notifyFn, e)
}

//hwdp:hotpath
func (s *SMU) finish(e *pmshrEntry, res Result, pte pagetable.Entry) {
	if e.timeout != nil {
		e.timeout.Cancel()
		e.timeout = nil
	}
	s.slots[e.idx] = nil
	e.cid = 0
	//hwdp:ignore hotalloc freeIdx was filled to full PMSHR depth at construction; append never exceeds that retained capacity
	s.freeIdx = append(s.freeIdx, e.idx)
	s.qosRelease(e.req.Tenant, e.dev != nil)
	if e.installed {
		s.stats.FramesInstalled++
		s.tstat(e.req.Tenant).FramesInstalled++
	} else {
		// The popped frame was never installed (failure, or the PT
		// update yielded to an OS-resolved PTE): return it to the free
		// queue so it cannot leak (accepted == installed + held).
		s.queueFor(e.req.Core).Requeue(e.frame)
		s.stats.FramesRecycled++
		s.tstat(e.req.Tenant).FramesRecycled++
	}
	addr := e.pteAddr
	for _, w := range e.waiters {
		w.call(res, pte)
	}
	s.checkBarriers(addr)
	// Admit one backlogged request per freed slot.
	if s.backlogHead < len(s.backlog) {
		item := s.backlog[s.backlogHead]
		s.backlog[s.backlogHead] = backlogItem{}
		s.backlogHead++
		if s.backlogHead == len(s.backlog) {
			s.backlog = s.backlog[:0]
			s.backlogHead = 0
		}
		now := s.eng.Now()
		item.req.Trace.AddSpan(trace.LayerSMU, "pmshr-backlog-wait", item.at, now)
		s.backlogWait.Record(int64(now - item.at))
		s.psi.EndStall(metrics.StallPMSHRBacklog, int64(now), int64(now-item.at))
		s.putEntry(e)
		s.admit(item.req, item.done)
		s.qosDrain()
		return
	}
	s.putEntry(e)
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

// BarrierAll invokes done once every currently outstanding miss completes.
func (s *SMU) BarrierAll(done func()) {
	addrs := make([]pagetable.EntryAddr, 0, s.Outstanding())
	for _, e := range s.slots {
		if e != nil {
			addrs = append(addrs, e.pteAddr)
		}
	}
	s.Barrier(addrs, done)
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
