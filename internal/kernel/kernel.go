// Package kernel models the operating system: processes, VMAs and mmap,
// the page cache with clock-LRU replacement and reverse mappings, the
// OS-based demand-paging fault handler with its full I/O stack (OSDP), the
// software-emulated SMU variant (SWDP, Fig. 17), and the control-plane
// support for hardware demand paging (HWDP): fast-mmap LBA augmentation,
// free-page-queue refill, and the kpted / kpoold background threads
// (Section IV of the paper).
package kernel

import (
	"fmt"

	"hwdp/internal/cpu"
	"hwdp/internal/fs"
	"hwdp/internal/mem"
	"hwdp/internal/metrics"
	"hwdp/internal/mmu"
	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/smu"
	"hwdp/internal/ssd"
	"hwdp/internal/trace"
)

// Scheme selects the demand-paging implementation.
type Scheme int

// Schemes. OSDP is the vanilla kernel; SWDP keeps the exception but runs a
// software-emulated SMU over LBA-augmented PTEs; HWDP is the paper's
// proposal.
const (
	OSDP Scheme = iota
	SWDP
	HWDP
)

// String returns the scheme's display name.
func (s Scheme) String() string {
	switch s {
	case OSDP:
		return "OSDP"
	case SWDP:
		return "SW-only"
	case HWDP:
		return "HWDP"
	}
	return "?"
}

// Config tunes the kernel model.
type Config struct {
	Scheme Scheme
	Costs  Costs

	// KpooldPeriod is the free-page-queue refill period (paper: 4 ms).
	KpooldPeriod sim.Time
	// KptedPeriod is the OS-metadata sync period. The paper uses 1 s on a
	// 32 GiB machine; the default scales it with the smaller simulated
	// memories so that (period / memory-rotation time) is preserved.
	KptedPeriod sim.Time
	// KswapdPeriod is the background reclaim scan period.
	KswapdPeriod sim.Time

	DisableKpoold bool // ablation: no background refill (Section IV-D)

	// ShardKpoold splits the kpoold refill sweep into one periodic tick per
	// socket, staggered across the period, instead of one tick refilling
	// every SMU at the same timestamp. Fleet configs enable it so refill
	// work — and the doorbell traffic it triggers on each socket's device
	// — spreads in time across sockets. Off (the default) keeps the
	// single-sweep behavior byte-identical.
	ShardKpoold bool

	// StallTimeout, when non-zero under HWDP, bounds how long a pipeline
	// stall may wait on the SMU: past it, a timeout exception fires and the
	// OS context-switches the thread away until the miss completes
	// (Section V, "Long Latency I/O"). Zero disables the timeout.
	StallTimeout sim.Time

	// BlockTimeout, when non-zero, bounds how long the block layer waits for
	// any completion: past it the command is aborted and treated as a
	// retryable failure. This is what recovers commands lost inside a
	// faulty device (no completion ever arrives).
	BlockTimeout sim.Time

	// DirtyRatioFrac, when non-zero, is the hard dirty-page limit as a
	// fraction of physical frames: a thread writing past it is throttled
	// in 100 µs slices until the flusher catches up (the
	// balance_dirty_pages model), and background writeback starts at half
	// the limit. Zero (the default) disables dirty accounting and
	// throttling entirely.
	DirtyRatioFrac float64
	// OOMStallLimit, when non-zero, bounds how long an allocation may
	// stall in the reclaim-retry loop before the OOM killer selects and
	// kills the process with the largest resident set. Zero (the default)
	// keeps the pre-existing behavior: exhausted allocations retry until
	// writeback completions free memory.
	OOMStallLimit sim.Time
}

const (
	// lowWaterFrac / highWaterFrac bound background reclaim: kswapd starts
	// evicting below low*frames free and stops at high*frames.
	lowWaterFrac  = 0.06
	highWaterFrac = 0.12

	// kpooldReserveFrac keeps kpoold from handing the allocator's last
	// frames to the SMU.
	kpooldReserveFrac = 0.03

	// blockRetries bounds how many times the block layer resubmits an I/O
	// that failed with a retryable status (command interrupted, host
	// timeout) before reporting the failure to the caller.
	blockRetries = 3
	// blockRetryDelay is the delay before the first block-layer retry; it
	// doubles on each subsequent attempt.
	blockRetryDelay = 20 * sim.Microsecond

	// irqWire is the device-to-host latency from CQ write to the interrupt
	// handler starting (MSI-X delivery; the handler's own cost is
	// Costs.InterruptDelivery, charged separately on the CPU). The
	// host-to-device doorbell write is ssd.DoorbellWire, the wire the SMU
	// rings too.
	irqWire = 100 * sim.Nanosecond
)

// DefaultConfig returns the configuration used by the evaluation.
func DefaultConfig(scheme Scheme) Config {
	return Config{
		Scheme:       scheme,
		Costs:        DefaultCosts(),
		KpooldPeriod: 4 * sim.Millisecond,
		KptedPeriod:  40 * sim.Millisecond,
		KswapdPeriod: 1 * sim.Millisecond,
		BlockTimeout: 10 * sim.Millisecond,
	}
}

// Stats are kernel-level event counters.
type Stats struct {
	MajorFaults     uint64 // OSDP faults with device I/O
	MinorFaults     uint64 // page-cache hits
	SWFaults        uint64 // SWDP software-SMU faults
	HWBounceFaults  uint64 // HWDP misses bounced for lack of free pages
	Evictions       uint64
	Writebacks      uint64
	DirectReclaims  uint64
	KptedRuns       uint64
	KptedSyncs      uint64
	KptedPTEsSeen   uint64
	KpooldFrames    uint64
	FaultRefills    uint64 // free-queue refills done on the fault path
	StallTimeouts   uint64 // HWDP stalls converted to context switches
	MmapPages       uint64
	MunmapPages     uint64
	Forks           uint64
	Msyncs          uint64
	RemapPatchedPTE uint64

	// Error-recovery counters.
	BlockRetries    uint64 // block-layer resubmissions of failed commands
	BlockTimeouts   uint64 // commands the block layer aborted after no completion
	SIGBUSKills     uint64 // threads killed: fault I/O unrecoverable (UECC)
	WritebackErrors uint64 // writebacks abandoned after exhausting retries

	// Pressure counters (memory oversubscription).
	AllocStalls     uint64 // allocations that entered the reclaim-retry loop
	ThrottledWrites uint64 // writes stalled at the dirty-ratio limit
	FlusherRuns     uint64 // background writeback sweeps
	FlusherPages    uint64 // pages cleaned by background writeback
	OOMKills        uint64 // processes killed by the OOM killer
	OOMReapedPages  uint64 // resident pages reclaimed from OOM victims
}

type storKey struct{ sid, dev uint8 }

type osQueue struct {
	qid     uint16
	port    *ssd.Port
	st      *storage
	nextCID uint16
	pending nvme.CIDTable[*osPending]
}

// osPending is one block-layer request: the command's arguments, the retry
// state, the completion callback and the timeout armed for the current
// attempt. It is pooled and lives from submitIORetry until the final
// status is delivered; each attempt files it in its queue's pending table
// under that attempt's CID.
type osPending struct {
	st      *storage
	hw      *cpu.HWThread
	op      nvme.Opcode
	lba     uint64
	frame   mem.FrameID
	ms      *trace.Miss
	done    func(status uint16)
	attempt int

	q       *osQueue
	cid     uint16
	timeout *sim.Event
}

type storage struct {
	key  storKey
	dev  *ssd.Device
	fsys *fs.FS
	// One OS-managed queue per hardware thread, NVMe-style, by
	// hardware thread ID; nil until the thread's first I/O.
	qps    []*osQueue
	nextQP uint16
}

// Process is one address space plus its VMAs.
type Process struct {
	k         *Kernel
	AS        *mmu.AddressSpace
	vmas      []*VMA
	threads   []*Thread
	nextMap   pagetable.VAddr
	oomKilled bool
}

// VMA is one mapped region of a file (or of anonymous memory, in which
// case File is a hidden swap-backing file).
type VMA struct {
	Start pagetable.VAddr
	Pages int
	File  *fs.File
	st    *storage
	Fast  bool // mapped with the fast-mmap flag (LBA augmentation)
	Anon  bool // anonymous memory (File is the swap backing)
	Prot  pagetable.Prot
	proc  *Process
	dead  bool
	// swapped is a bitset by page index of the anonymous pages whose
	// current content lives in the swap backing (they were written and
	// later evicted); other anonymous pages refault as zero-fills without
	// I/O.
	swapped []uint64
}

// isSwapped reports whether anonymous page idx's content is in the swap
// backing.
func (v *VMA) isSwapped(idx int) bool {
	return v.swapped[idx>>6]&(1<<(idx&63)) != 0
}

// setSwapped records that anonymous page idx's content is in the swap
// backing.
func (v *VMA) setSwapped(idx int) { v.swapped[idx>>6] |= 1 << (idx & 63) }

// End returns the first address past the VMA.
func (v *VMA) End() pagetable.VAddr {
	return v.Start + pagetable.VAddr(v.Pages)*mem.PageSize
}

func (v *VMA) contains(va pagetable.VAddr) bool { return va >= v.Start && va < v.End() }

func (v *VMA) pageIndex(va pagetable.VAddr) int {
	return int((va.PageBase() - v.Start) / mem.PageSize)
}

// Thread is a schedulable software thread pinned to one hardware thread
// (the evaluation pins workload threads to logical cores).
type Thread struct {
	ID   int
	HW   *cpu.HWThread
	Proc *Process
	// Tenant is the fleet tenant the thread serves (0 on the default
	// single-tenant machine). It rides the access context into the MMU and
	// SMU for per-tenant accounting and QoS admission.
	Tenant int
	// Killed marks a thread terminated by the SIGBUS model: the I/O backing
	// one of its page faults failed unrecoverably. The simulation keeps the
	// Thread object (accounting), but workloads should stop driving it.
	Killed bool

	// The in-flight access. The stall gate admits one access per hardware
	// thread at a time, so its completion state lives here instead of in
	// a per-access closure. accessFn is the accessed method, bound once in
	// NewThread.
	stalled  bool
	accDone  func(mmu.Result)
	accTimer *sim.Event
	timedOut bool
	accessFn func(mmu.Result)

	// The in-flight whole-page op (LoadPage or StorePage) and WAL append
	// (WriteRaw). Each rides one access or one kexec of this thread, so
	// its state lives here next to accDone; loadedFn, storedFn and
	// walExecFn are the completion methods, bound once in NewThread.
	pageLoadDone  func(r mmu.Result, c mem.Content, data []byte)
	pageStore     mem.Content
	pageStoreDone func(mmu.Result)
	walSt         *storage
	walLBA        uint64
	walDone       func()
	loadedFn      func(mmu.Result)
	storedFn      func(mmu.Result)
	walExecFn     func()
}

// CoreID implements mmu.CoreCarrier: the logical core the thread is pinned
// to (selects the per-core free page queue when the SMU runs them).
func (t *Thread) CoreID() int { return t.HW.ID }

// TenantID implements mmu.TenantCarrier: the fleet tenant charged for the
// thread's page misses.
func (t *Thread) TenantID() int { return t.Tenant }

func (t *Thread) beginStall(k *Kernel) {
	k.cpu.StartStall(t.HW)
	t.stalled = true
}

// endStall ends the thread's open pipeline stall, if it has one.
func (t *Thread) endStall(k *Kernel) {
	if t.stalled {
		k.cpu.EndStall(t.HW)
		t.stalled = false
	}
}

// mapping is one (address space, va) that maps a page (reverse map record).
type mapping struct {
	as  *mmu.AddressSpace
	va  pagetable.VAddr
	pte pagetable.EntryRef
	vma *VMA
}

// Page is the kernel's struct page. The kernel keeps one per physical
// frame (Kernel.pages, indexed by mem.FrameID, Linux's mem_map): a frame
// backs at most one file page from insertPage until the frame is freed,
// including while the page is under writeback after it left the cache, so
// a *Page names one page for as long as its frame stays allocated.
type Page struct {
	file  *fs.File
	st    *storage
	idx   int
	frame mem.FrameID
	// maps is the reverse map. Each slot starts with room for one mapping
	// and insertPage reuses the slot's backing array, so a page takes its
	// first mapping without allocating.
	maps []mapping
	// prev and next link the page into the clock LRU, as frame+1 (0 = no
	// neighbour). They are meaningful only while cached is set.
	prev, next int32
	// cached marks a page indexed in the page cache and on the LRU; an
	// evicted or unmapped page keeps its slot until its frame is freed.
	cached bool
	wb     bool // under writeback
}

type pcKey struct {
	file *fs.File
	idx  int
}

// Kernel is the OS model for one machine.
type Kernel struct {
	eng *sim.Engine
	cpu *cpu.CPU
	mem *mem.Memory
	mmu *mmu.MMU
	cfg Config

	storages []*storage // in attach order; a machine has a few
	// smus holds the SMUs indexed by socket ID; refill sweeps visit them
	// in SID order, so frames are handed out deterministically.
	smus []*smu.SMU
	// refillRecs is refillSMU's scratch batch, sized at AttachSMU to the
	// deepest free page queue so a refill never allocates (Push copies
	// the records out).
	refillRecs []smu.FrameRecord

	// procs holds every process in creation order, so process ASID sits
	// at procs[ASID-1] (ASIDs count up from 1).
	procs    []*Process
	nextASID uint32

	// anonCount names anonymous backings uniquely. It is per-Kernel, not
	// package-level: independent Systems must stay isolated so sweeps can
	// run them concurrently without shared state.
	anonCount int

	// The page cache, frame-indexed. pages is sized to physical memory at
	// the first insertPage; pcIndex maps each file to its per-page frame
	// index (frame+1, 0 = not cached). lruHead/lruTail (frame+1) bound the
	// clock LRU of every cached page, oldest first.
	pages            []Page
	pcIndex          map[*fs.File][]int32
	lruHead, lruTail int32
	lruLen           int

	// locked lists the faults holding a page lock, linked through
	// pageFault.next: the page-lock serialization of OS faults and the
	// SW-only scheme's emulated PMSHR.
	locked *pageFault

	kptedHW, kpooldHW, kswapdHW *cpu.HWThread

	// walBuffer is a pinned frame used as the DMA source for WriteRaw.
	walBuffer mem.FrameID

	reclaiming bool
	stats      Stats
	started    bool
	tracer     *trace.Tracer

	// Pressure state. psi is the optional pressure-stall recorder
	// (recording-only: it never schedules events, so attaching it cannot
	// perturb event ordering). The dirty counters are armed only when
	// Config.DirtyRatioFrac is set; dirtyPages is approximate, Linux-style
	// (clean→dirty PTE transitions minus writeback submissions, clamped
	// at zero).
	psi            *metrics.PSI
	dirtyPages     int
	dirtyBgLimit   int // frames; 0 = dirty accounting off
	dirtyHardLimit int
	flushing       bool

	// Pooled retry records for kexec's busy-wait poll: a core can stay
	// busy across many 150ns polls, so the retry must not allocate a
	// closure per attempt.
	kexecFn func(any)
	kexecs  sim.Pool[kexecReq]

	// Pooled carriers for the allocation reclaim-retry loop and the
	// dirty-throttle loop (both can poll many times under pressure).
	allocFn    func(any)
	allocs     sim.Pool[allocReq]
	throttleFn func(any)
	throttles  sim.Pool[throttleReq]

	// Pooled block-layer requests and their pre-bound timeout and retry
	// callbacks: one osPending per in-flight I/O, recycled forever.
	ioTimeoutFn func(any)
	ioRetryFn   func(any)
	pendings    sim.Pool[osPending]

	// Pooled fault records, and the pre-bound stall-timeout callback.
	faults         sim.Pool[pageFault]
	stallTimeoutFn func(any)

	// Pooled page-replacement carriers: one per reclaim pass and one per
	// freeing writeback. kswapdFn and kswapdDoneFn are kswapd's tick and
	// end-of-pass callbacks, bound once.
	scans        sim.Pool[reclaimScan]
	wbDones      sim.Pool[wbDone]
	kswapdFn     func()
	kswapdDoneFn func(int)

	// walWrittenFn is the completion of every WriteRaw device write,
	// bound once.
	walWrittenFn func(status uint16)
}

// New wires a kernel over the machine components. Background threads run on
// the provided hardware threads (the paper's kernel threads are ordinary
// schedulable threads; the evaluation machine has spare logical cores).
func New(eng *sim.Engine, c *cpu.CPU, m *mem.Memory, mm *mmu.MMU, cfg Config,
	kptedHW, kpooldHW, kswapdHW *cpu.HWThread) *Kernel {
	k := &Kernel{
		eng:       eng,
		cpu:       c,
		mem:       m,
		mmu:       mm,
		cfg:       cfg,
		pcIndex:   make(map[*fs.File][]int32),
		kptedHW:   kptedHW,
		kpooldHW:  kpooldHW,
		kswapdHW:  kswapdHW,
		walBuffer: mem.NoFrame,
	}
	mm.SetOSFaultHandler(k.handleFault)
	mm.DispatchHW = cfg.Scheme == HWDP
	k.kexecFn = k.runKexec
	k.allocFn = k.runAllocRetry
	k.throttleFn = k.runThrottle
	k.ioTimeoutFn = k.ioTimeout
	k.ioRetryFn = k.ioRetry
	k.stallTimeoutFn = k.stallTimeout
	k.kswapdFn, k.kswapdDoneFn = k.kswapdTick, k.kswapdDone
	k.walWrittenFn = k.walWritten
	if cfg.DirtyRatioFrac > 0 {
		k.dirtyHardLimit = int(float64(m.Frames()) * cfg.DirtyRatioFrac)
		if k.dirtyHardLimit < 1 {
			k.dirtyHardLimit = 1
		}
		k.dirtyBgLimit = int(float64(m.Frames()) * cfg.DirtyRatioFrac / 2)
		if k.dirtyBgLimit < 1 {
			k.dirtyBgLimit = 1
		}
		// Dirty accounting is armed only when throttling is configured, so
		// default runs take no hook call on the write path.
		mm.OnDirty = k.noteDirtied
	}
	return k
}

// SetTracer attaches the observability tracer (nil disables tracing; that
// is the default). The kernel uses it to snapshot the flight recorder on
// SIGBUS kills; span recording goes through the per-miss contexts.
func (k *Kernel) SetTracer(t *trace.Tracer) { k.tracer = t }

// SetPSI attaches a pressure-stall recorder (nil, the default, disables
// it). Recording is passive — it never schedules events — so attaching
// it cannot change simulation outcomes.
func (k *Kernel) SetPSI(p *metrics.PSI) { k.psi = p }

// Processes returns the live process list in creation order.
func (k *Kernel) Processes() []*Process { return k.procs }

// AccountedFrames counts the distinct physical frames the kernel can
// name: page-cache pages (via the LRU links, which hold every cached page),
// present PTEs of every process (covers hardware-installed pages not yet
// synced into the cache), and the pinned WAL buffer. The leak audit
// compares it against the allocator's outstanding count once in-flight
// I/O has drained.
func (k *Kernel) AccountedFrames() int {
	seen := make(map[mem.FrameID]bool)
	for i := k.lruHead; i != 0; i = k.pages[i-1].next {
		seen[mem.FrameID(i-1)] = true
	}
	for _, p := range k.procs {
		p.AS.Table.ScanAll(func(_ pagetable.VAddr, pte pagetable.EntryRef) {
			if ent := pte.Get(); ent.Present() {
				seen[ent.PFN()] = true
			}
		})
	}
	n := len(seen)
	if k.walBuffer != mem.NoFrame {
		n++
	}
	return n
}

// Stats returns a copy of the counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Config returns the kernel configuration.
func (k *Kernel) Config() Config { return k.cfg }

// Memory exposes the physical memory (examples and the harness inspect it).
func (k *Kernel) Memory() *mem.Memory { return k.mem }

// AttachStorage registers a device + file system at <sid, devID> and hooks
// the file system's block-remap notifications so LBA-augmented PTEs of
// marked files stay correct.
func (k *Kernel) AttachStorage(sid, devID uint8, dev *ssd.Device, fsys *fs.FS) {
	key := storKey{sid, devID}
	if k.storage(sid, devID) != nil {
		panic(fmt.Sprintf("kernel: storage %v attached twice", key))
	}
	st := &storage{key: key, dev: dev, fsys: fsys, qps: make([]*osQueue, len(k.cpu.Threads())), nextQP: 1000}
	k.storages = append(k.storages, st)
	fsys.OnRemap(func(f *fs.File, page int, nb pagetable.BlockAddr) {
		k.patchRemappedPTEs(st, f, page, nb)
	})
}

// AttachSMU registers the SMU for a socket (HWDP control plane: refills and
// barriers). Sockets attach in SID order from 0, as core builds them.
func (k *Kernel) AttachSMU(s *smu.SMU) {
	if int(s.SID) != len(k.smus) {
		panic(fmt.Sprintf("kernel: SMU %d attached after %d SMUs (want SIDs 0, 1, ... in order)", s.SID, len(k.smus)))
	}
	k.smus = append(k.smus, s)
	for _, q := range s.Queues() {
		if q.Depth() > len(k.refillRecs) {
			k.refillRecs = make([]smu.FrameRecord, q.Depth())
		}
	}
}

// Start primes the free page queues and launches the background threads.
// Call once, after attaching storage and SMUs.
func (k *Kernel) Start() {
	if k.started {
		panic("kernel: Start called twice")
	}
	k.started = true
	if k.cfg.Scheme == HWDP {
		k.refillAll()
		switch {
		case k.cfg.DisableKpoold:
		case k.cfg.ShardKpoold:
			// One refill tick per socket, staggered across the period so the
			// sweeps don't land on a single timestamp. Each ticker binds its
			// callback once; rescheduling reposts the stored func.
			for i, s := range k.smus {
				t := &smuTicker{k: k, s: s}
				t.tick = t.run
				off := k.cfg.KpooldPeriod * sim.Time(i) / sim.Time(len(k.smus))
				k.eng.Post(k.cfg.KpooldPeriod+off, t.tick)
			}
		default:
			k.eng.Post(k.cfg.KpooldPeriod, k.kpooldTick)
		}
	}
	if k.cfg.Scheme == HWDP || k.cfg.Scheme == SWDP {
		k.eng.Post(k.cfg.KptedPeriod, k.kptedTick)
	}
	k.eng.Post(k.cfg.KswapdPeriod, k.kswapdFn)
}

// NewProcess creates a process with an empty address space.
func (k *Kernel) NewProcess() *Process {
	k.nextASID++
	p := &Process{
		k:       k,
		AS:      &mmu.AddressSpace{ASID: k.nextASID, Table: pagetable.New()},
		nextMap: 0x1000_0000_0000,
	}
	k.procs = append(k.procs, p)
	return p
}

// NewThread pins a software thread to hardware thread hwID.
func (k *Kernel) NewThread(p *Process, hwID int) *Thread {
	th := &Thread{ID: hwID, HW: k.cpu.Thread(hwID), Proc: p}
	th.accessFn = th.accessed
	th.loadedFn, th.storedFn, th.walExecFn = th.pageLoaded, th.pageStored, th.walExec
	p.threads = append(p.threads, th)
	return th
}

func (p *Process) findVMA(va pagetable.VAddr) *VMA {
	for _, v := range p.vmas {
		if !v.dead && v.contains(va) {
			return v
		}
	}
	return nil
}

// kexec runs kernel work of duration d on hw, waiting for the hardware
// thread to become idle first (an interrupt arriving while the core still
// runs the context-switch-out path is delayed, as on real hardware where it
// is serviced at the next instruction boundary of the critical section).
func (k *Kernel) kexec(hw *cpu.HWThread, d sim.Time, fn func()) {
	if hw.State() != cpu.Idle {
		r := k.kexecs.Get()
		r.hw, r.d, r.fn = hw, d, fn
		k.eng.PostArg(sim.Nano(150), k.kexecFn, r)
		return
	}
	k.cpu.KernelExec(hw, d, fn)
}

// kexecReq carries the arguments of a delayed kexec retry through the
// event queue without a per-poll closure.
type kexecReq struct {
	hw *cpu.HWThread
	d  sim.Time
	fn func()
}

// runKexec is the pre-bound PostArg callback for kexec retries.
func (k *Kernel) runKexec(a any) {
	r := a.(*kexecReq)
	hw, d, fn := r.hw, r.d, r.fn
	*r = kexecReq{}
	k.kexecs.Put(r)
	k.kexec(hw, d, fn)
}

// kspan is kexec plus span recording: when the miss is traced, the kernel
// phase is charged from now until fn actually runs — which includes any
// wait for the hardware thread, the real critical-path cost. With tracing
// off (ms == nil) it is exactly kexec: no extra closure, no allocation.
func (k *Kernel) kspan(ms *trace.Miss, name string, hw *cpu.HWThread, d sim.Time, fn func()) {
	if ms == nil {
		k.kexec(hw, d, fn)
		return
	}
	start := k.eng.Now()
	//hwdp:ignore hotalloc closure only built when tracing is on (single-miss experiments), never in steady state
	k.kexec(hw, d, func() {
		ms.AddSpan(trace.LayerKernel, name, start, k.eng.Now())
		fn()
	})
}

// osQueueFor returns (lazily creating) the per-hardware-thread OS queue
// pair on a storage device.
func (k *Kernel) osQueueFor(st *storage, hw *cpu.HWThread) *osQueue {
	if q := st.qps[hw.ID]; q != nil {
		return q
	}
	return k.newOSQueue(st, hw)
}

// newOSQueue creates and attaches the OS queue for hw on st.
//
//hwdp:coldpath runs once per (storage, hardware thread), on its first I/O
func (k *Kernel) newOSQueue(st *storage, hw *cpu.HWThread) *osQueue {
	q := &osQueue{qid: st.nextQP, st: st}
	st.nextQP++
	st.qps[hw.ID] = q
	// Completions cross back over the IRQ wire and the interrupt
	// handler runs kernel-side.
	q.port = st.dev.Attach(q.qid, irqWire, func(cp nvme.Completion) { k.osInterrupt(q, cp) })
	return q
}

// osInterrupt is the device interrupt path for OS-managed queues. The
// per-command callback decides what handling to charge where. Completions
// for commands the block layer already timed out (the pending entry is
// gone) are stale and dropped.
func (k *Kernel) osInterrupt(q *osQueue, cp nvme.Completion) {
	if p, ok := q.pending.Take(cp.CID); ok {
		p.timeout.Cancel()
		p.timeout = nil
		k.ioDone(p, cp.Status)
	}
}

// submitIORetry issues a read or write on the caller's OS queue and
// resubmits on retryable failures (transient media errors, timeouts) with
// a doubling delay, up to blockRetries resubmissions. done runs at
// completion-interrupt time with the final status (callers charge
// completion costs); retries are invisible to the caller except as
// latency. When Config.BlockTimeout is set (the default is 10 ms) and an
// attempt gets no completion in time, the command is aborted and the
// attempt fails with the host-synthesized StatusHostTimeout.
//
//hwdp:hotpath
func (k *Kernel) submitIORetry(st *storage, hw *cpu.HWThread, op nvme.Opcode, lba uint64,
	frame mem.FrameID, ms *trace.Miss, done func(status uint16)) {
	p := k.pendings.Get()
	p.st, p.hw, p.op, p.lba, p.frame, p.ms, p.done = st, hw, op, lba, frame, ms, done
	p.attempt = 1
	k.submitIO(p)
}

// submitIO issues one attempt of p under a fresh CID: the command goes
// straight onto the doorbell wire, and the device services it for the
// time it lands.
//
//hwdp:hotpath
func (k *Kernel) submitIO(p *osPending) {
	q := k.osQueueFor(p.st, p.hw)
	cid := q.nextCID
	q.nextCID++
	p.q, p.cid = q, cid
	if !q.pending.Put(cid, p) {
		k.replacePending(q, cid, p)
	}
	if k.cfg.BlockTimeout > 0 {
		// Pooled handle: osInterrupt drops it right after Cancel, and
		// ioTimeout drops it as its first action.
		p.timeout = k.eng.AtArgPooled(k.eng.Now()+k.cfg.BlockTimeout, k.ioTimeoutFn, p)
	}
	cmd := nvme.Command{
		Opcode: p.op,
		CID:    cid,
		NSID:   p.st.fsys.NSID(),
		PRP1:   uint64(p.frame) * mem.PageSize,
		SLBA:   p.lba,
		Trace:  p.ms,
	}
	q.st.dev.Deliver(q.port, cmd)
}

// replacePending files p under a CID that is still live: the command
// behind the old entry got no completion over a full lap of the CID
// counter (a dropped command with no block-layer timeout), so its entry is
// abandoned and a late completion for the CID goes to p.
//
//hwdp:coldpath only a command lost with no timeout armed keeps its CID live for 65,536 later commands
func (k *Kernel) replacePending(q *osQueue, cid uint16, p *osPending) {
	q.pending.Take(cid)
	q.pending.Put(cid, p)
}

// ioTimeout is the block-layer watchdog (the pre-bound AtArgPooled
// callback): the attempt got no completion in time, so the command is
// aborted and the attempt fails with StatusHostTimeout.
func (k *Kernel) ioTimeout(a any) {
	p := a.(*osPending)
	p.timeout = nil
	q, cid := p.q, p.cid
	q.pending.Take(cid)
	p.st.dev.Abort(q.qid, cid)
	k.stats.BlockTimeouts++
	p.ms.Mark(trace.LayerKernel, "block-timeout", k.eng.Now())
	k.ioDone(p, nvme.StatusHostTimeout)
}

// ioDone ends one attempt of p: it delivers the final status, or
// schedules the next attempt after the backoff.
//
//hwdp:hotpath
func (k *Kernel) ioDone(p *osPending, status uint16) {
	if status == nvme.StatusSuccess || !nvme.StatusRetryable(status) ||
		p.attempt > blockRetries {
		done := p.done
		*p = osPending{}
		k.pendings.Put(p)
		done(status)
		return
	}
	k.stats.BlockRetries++
	delay := blockRetryDelay << (p.attempt - 1)
	p.attempt++
	now := k.eng.Now()
	p.ms.AddSpan(trace.LayerKernel, "block-retry-backoff", now, now+delay)
	k.eng.PostArg(delay, k.ioRetryFn, p)
}

// ioRetry is the pre-bound PostArg callback that resubmits p after its
// backoff.
func (k *Kernel) ioRetry(a any) { k.submitIO(a.(*osPending)) }

// storage returns the storage attached at <sid, devID>, or nil.
//
//hwdp:hotpath
func (k *Kernel) storage(sid, devID uint8) *storage {
	for _, st := range k.storages {
		if st.key == (storKey{sid, devID}) {
			return st
		}
	}
	return nil
}

func (k *Kernel) storageFor(b pagetable.BlockAddr) *storage {
	st := k.storage(b.SID, b.DeviceID)
	if st == nil {
		panic(fmt.Sprintf("kernel: no storage for %v", b))
	}
	return st
}
