package kernel

import (
	"fmt"

	"hwdp/internal/cpu"
	"hwdp/internal/fs"
	"hwdp/internal/mem"
	"hwdp/internal/mmu"
	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/smu"
	"hwdp/internal/trace"
)

// handleFault is the MMU's exception entry point. ctx is the faulting
// Thread (set by Access). hwFailed marks an HWDP miss bounced for an empty
// free page queue. ms is the miss's trace context (nil when tracing is
// disabled).
func (k *Kernel) handleFault(ctx any, as *mmu.AddressSpace, va pagetable.VAddr,
	write, hwFailed bool, ms *trace.Miss, done func(bool)) {
	th, ok := ctx.(*Thread)
	if !ok || th == nil {
		panic("kernel: fault without thread context")
	}
	// The pipeline is no longer stalled: the CPU vectors into the kernel.
	th.endStall(k)

	p := k.procs[as.ASID-1]
	vma := p.findVMA(va)
	if vma == nil {
		// Segfault: the access ends without a re-walk.
		done(false)
		return
	}

	// Classify using the PTE (the handler reads it anyway for triage).
	var state pagetable.State = pagetable.StateNotPresentOS
	if e, found := as.Table.Lookup(va); found {
		state = e.State()
	}
	if state == pagetable.StateResident || state == pagetable.StateResidentUnsynced {
		// Raced with a concurrent fault that already mapped the page.
		ms.SetCause(trace.CauseOSMinor)
		done(true)
		return
	}

	f := k.faults.Get()
	if f.k == nil {
		f.bind(k)
	}
	f.th, f.hw, f.as, f.va, f.vma, f.idx = th, th.HW, as, va, vma, vma.pageIndex(va)
	f.hwFailed, f.ms, f.done = hwFailed, ms, done
	c := k.cfg.Costs
	if k.cfg.Scheme == SWDP && state == pagetable.StateNotPresentLBA && !hwFailed {
		// SW-only: an early LBA-bit check routes the exception to the
		// software-emulated SMU.
		f.sw = true
		k.stats.SWFaults++
		ms.SetCause(trace.CauseSWMiss)
		k.kspan(ms, "exception+sw-check", f.hw, c.Exception+c.SWCheck, f.swCheckFn)
		return
	}
	k.kspan(ms, "exception-entry", f.hw, c.Exception+c.WalkInFault+c.HandlerEntry, f.entryFn)
}

// pageFault carries one kernel page fault to its return to user. An OSDP
// fault follows Figure 3: exception entry and VMA triage, then a
// page-cache hit (minor), an anonymous first touch zero-filled without
// I/O, or a storage read with a context switch (major), then OS metadata
// and PTE updates. A SW-only miss (Fig. 17) emulates the SMU: PMSHR
// lookup, a kernel-issued read waited out in monitor/mwait (or a
// zero-fill), and an unsynced PTE install left for kpted. Either kind may
// first wait on the page lock of a fault already filling its page. Each
// phase is a method bound once, so a pooled record takes every kind of
// fault without allocating; the record goes back to the pool when the
// fault returns to user (end), after the last phase it scheduled has run.
type pageFault struct {
	k        *Kernel
	th       *Thread
	hw       *cpu.HWThread
	as       *mmu.AddressSpace
	va       pagetable.VAddr
	vma      *VMA
	idx      int
	hwFailed bool
	sw       bool // a SW-only miss
	zero     bool // an OSDP anonymous first touch: zero-fill, no I/O
	ms       *trace.Miss
	done     func(bool)

	// The page lock. A fault holding its lock is on the kernel's holder
	// list and queues the faults that wait on the lock, in arrival order.
	// next links the holder list for a holder and the queue for a waiter.
	key           lockKey
	next, waiters *pageFault
	waitStart     sim.Time // when a waiter queued

	pg       *Page              // minor fault: the resident page
	pte      pagetable.EntryRef // SW-only: the missing PTE
	lba      uint64             // the block being read
	frame    mem.FrameID        // the frame being filled
	ioStatus uint16             // the read's final status

	entryFn, minorFn, swCheckFn, allocFn, submitFn                 func()
	switchedFn, wakeFn, installFn, swInstallFn, unlockFn, waitedFn func()
	frameFn                                                        func(mem.FrameID)
	ioFn                                                           func(status uint16)
}

// lockKey names a page lock: the file page for an OS fault, the PTE for a
// SW-only miss (the emulated PMSHR, like the hardware's, is keyed by PTE;
// a PTE key has no file, so the two kinds never match).
type lockKey struct {
	file *fs.File
	idx  int
	pte  pagetable.EntryAddr
}

// bind ties a new record to k and binds its phase callbacks. It runs once
// per record: the pool keeps both across reuse.
//
//hwdp:coldpath runs once per record, only while the fault pool grows
func (f *pageFault) bind(k *Kernel) {
	f.k = k
	f.entryFn, f.minorFn, f.swCheckFn, f.allocFn = f.entry, f.minor, f.swCheck, f.alloc
	f.submitFn, f.switchedFn, f.wakeFn = f.submit, f.switched, f.wake
	f.installFn, f.swInstallFn, f.unlockFn, f.waitedFn = f.install, f.swInstall, f.unlock, f.waited
	f.frameFn, f.ioFn = f.onFrame, f.onIO
}

// end returns the fault to user: the record goes back to the pool, then
// the MMU re-walks. A fault whose read failed for good killed its thread
// (sigbus), and its access ends without a re-walk.
func (f *pageFault) end() {
	done, ok := f.done, f.ioStatus == nvme.StatusSuccess
	f.th, f.hw, f.as, f.va, f.vma, f.idx = nil, nil, nil, 0, nil, 0
	f.hwFailed, f.sw, f.zero, f.ms, f.done = false, false, false, nil, nil
	f.key, f.next, f.waiters, f.waitStart = lockKey{}, nil, nil, 0
	f.pg, f.pte, f.lba, f.frame, f.ioStatus = nil, pagetable.EntryRef{}, 0, 0, 0
	f.k.faults.Put(f)
	done(ok)
}

// lock takes the page lock named by f.key. If another fault holds it, f
// queues behind the holder and lock reports false; f resumes when the
// holder unlocks. A thread has at most one fault in flight, so the holder
// list stays short.
func (f *pageFault) lock() bool {
	k := f.k
	for h := k.locked; h != nil; h = h.next {
		if h.key == f.key {
			f.waitStart = k.eng.Now()
			w := &h.waiters
			for *w != nil {
				w = &(*w).next
			}
			*w = f
			return false
		}
	}
	f.next, k.locked = k.locked, f
	return true
}

// unlock releases f's page lock, returns f to user and then resumes the
// faults that waited on the lock, in arrival order.
//
//hwdp:hotpath
func (f *pageFault) unlock() {
	h := &f.k.locked
	for *h != f {
		h = &(*h).next
	}
	*h = f.next
	w := f.waiters
	f.end()
	for w != nil {
		next := w.next
		w.resume()
		w = next
	}
}

// resume runs when the fault holding the lock f waited on unlocks. A
// SW-only miss returns at once: the emulated PMSHR's completion broadcast
// ends its mwait. An OS fault takes the minor-fault path off the page
// cache.
func (f *pageFault) resume() {
	k := f.k
	if f.sw {
		f.ms.AddSpan(trace.LayerKernel, "sw-pmshr-wait", f.waitStart, k.eng.Now())
		f.end()
		return
	}
	f.ms.AddSpan(trace.LayerKernel, "page-lock-wait", f.waitStart, k.eng.Now())
	k.kspan(f.ms, "minor-fault", f.hw, k.cfg.Costs.MinorFault, f.waitedFn)
}

// waited maps the page the lock holder brought in. The page can be absent
// (the holder's read failed) or the PTE already present (the SMU beat the
// OS to it); both cases just return, and the re-walk settles the access:
// it hits, or it faults again and the fault is raised again.
func (f *pageFault) waited() {
	k := f.k
	if e, found := f.as.Table.Lookup(f.va); !found || !e.Present() {
		if pg := k.lookupPage(f.vma.File, f.idx); pg != nil {
			k.finishMap(f.as, f.va, f.vma, pg)
		}
	}
	f.end()
}

// entry runs after exception entry: a page-cache hit is a minor fault, an
// anonymous first touch is zero-filled, anything else reads the page in.
//
//hwdp:hotpath
func (f *pageFault) entry() {
	k, c := f.k, f.k.cfg.Costs
	// Minor fault: the page is already resident in the page cache. A page
	// the flusher or msync is writing back stays cached and mappable; a
	// page evicted dirty left the cache when its write was submitted, so
	// this fault misses it and reads the block again (the open
	// refault-during-writeback race in ROADMAP.md).
	if pg := k.lookupPage(f.vma.File, f.idx); pg != nil {
		k.stats.MinorFaults++
		f.ms.SetCause(trace.CauseOSMinor)
		f.pg = pg
		k.kspan(f.ms, "minor-fault", f.hw, c.MinorFault, f.minorFn)
		return
	}
	// An anonymous first touch (no swapped-out content) needs no I/O: the
	// minor-fault path of real kernels, and the fallback for bounced
	// hardware zero-fills.
	f.zero = f.vma.Anon && !f.vma.isSwapped(f.idx)
	// Page-lock serialization: a fault on a page another thread is filling
	// waits, then takes the minor-fault path, and counts as a minor fault.
	// A concurrent first touch must not insert the page twice, so a
	// zero-fill locks too.
	f.key = lockKey{file: f.vma.File, idx: f.idx}
	locked := f.lock()
	if !locked || f.zero {
		k.stats.MinorFaults++
		f.ms.SetCause(trace.CauseOSMinor)
	} else {
		k.stats.MajorFaults++
		f.ms.SetCause(trace.CauseOSMajor)
		if f.hwFailed {
			k.stats.HWBounceFaults++
		}
	}
	if locked {
		f.alloc()
	}
}

// minor maps the resident page and returns to user. kswapd may have
// evicted the page during the MinorFault charge, and its frame may back
// another page by now: a page no longer cached under (file, idx) is not
// mapped, and the fault is triaged again (Linux retries the fault the
// same way) without a second exception round trip.
func (f *pageFault) minor() {
	if f.k.lookupPage(f.vma.File, f.idx) != f.pg {
		f.pg = nil
		f.entry()
		return
	}
	f.k.finishMap(f.as, f.va, f.vma, f.pg)
	f.end()
}

// swCheck runs after the SW-only exception and LBA check: the emulated
// PMSHR lookup. A miss on a PTE already in flight waits in mwait for the
// original's completion broadcast.
func (f *pageFault) swCheck() {
	_, _, pte, ok := f.as.Table.Walk(f.va)
	if !ok {
		panic("kernel: sw fault on unpopulated table")
	}
	f.pte, f.key = pte, lockKey{pte: pte.Addr()}
	if f.lock() {
		f.k.kspan(f.ms, "sw-pmshr", f.hw, f.k.cfg.Costs.SWPMSHR, f.allocFn)
	}
}

// alloc asks the allocator for the frame to fill.
//
//hwdp:hotpath
func (f *pageFault) alloc() { f.k.allocFrame(f.hw, f.frameFn) }

// onFrame receives the frame from the allocator and charges the step
// that follows: the read's submission, or the zero-fill's install.
//
//hwdp:hotpath
func (f *pageFault) onFrame(frame mem.FrameID) {
	k, c := f.k, f.k.cfg.Costs
	f.frame = frame
	switch {
	case f.sw:
		blk := f.pte.Get().Block()
		if blk.LBA == pagetable.AnonFirstTouch {
			// The emulated SMU bypasses I/O for first-touch anonymous
			// pages, like the hardware.
			f.ms.SetCause(trace.CauseAnonZeroFill)
			k.kspan(f.ms, "sw-complete", f.hw, c.SWComplete, f.swInstallFn)
			return
		}
		f.lba = blk.LBA
		k.kspan(f.ms, "sw-submit", f.hw, c.SWSubmit, f.submitFn)
	case f.zero:
		k.kspan(f.ms, "page-alloc+pte-install", f.hw, c.PageAlloc+c.PTEInstallReturn, f.installFn)
	default:
		k.kspan(f.ms, "page-alloc+io-submit", f.hw, c.PageAlloc+c.IOSubmit, f.submitFn)
	}
}

// submit issues the read. An OS fault switches the faulting thread out
// while the device works; a SW-only miss waits in mwait, the core
// issuing nothing.
//
//hwdp:hotpath
func (f *pageFault) submit() {
	k := f.k
	if f.sw {
		f.th.beginStall(k)
		k.submitIORetry(f.vma.st, f.hw, nvme.OpRead, f.lba, f.frame, f.ms, f.ioFn)
		return
	}
	blk, err := f.vma.st.fsys.Block(f.vma.File, f.idx)
	if err != nil {
		panic(err)
	}
	f.lba = blk.LBA
	k.submitIORetry(f.vma.st, f.hw, nvme.OpRead, f.lba, f.frame, f.ms, f.ioFn)
	f.hw.AccountContextSwitch()
	k.kspan(f.ms, "ctx-switch-out", f.hw, k.cfg.Costs.CtxSwitchOut, f.switchedFn)
}

func nop() {}

// switched ends the context switch out. A hardware miss bounced for an
// empty free page queue tops up every SMU free page queue here, overlapped
// with the read (AIOS-style, Section IV-D). The record outlives this
// phase: submit runs on the idle faulting core, so ctx-switch-out starts
// at once, and all the read's completion work up to the unlock is kernel
// work on the same core, queued behind it.
func (f *pageFault) switched() {
	if k := f.k; f.hwFailed {
		k.stats.FaultRefills++
		if total := k.refillAll(); total > 0 {
			k.kexec(f.hw, k.cfg.Costs.RefillPerFrame*sim.Time(total), nop)
		}
	}
}

// onIO receives the read's final status from the block layer: interrupt
// and completion, then an OS fault's wake and schedule-in, or the end of a
// SW-only miss's mwait (the handler touches the monitored address).
//
//hwdp:hotpath
func (f *pageFault) onIO(status uint16) {
	k, c := f.k, f.k.cfg.Costs
	f.ioStatus = status
	if f.sw {
		f.th.endStall(k)
		k.kspan(f.ms, "irq+sw-complete", f.hw, c.InterruptDelivery+c.SWComplete, f.wakeFn)
		return
	}
	f.hw.AccountContextSwitch()
	k.kspan(f.ms, "irq+complete+wake", f.hw, c.InterruptDelivery+c.IOCompletion+c.WakeSchedule, f.wakeFn)
}

// wake installs the read page (an OS fault charges its metadata and PTE
// updates first), or delivers SIGBUS when the read failed for good.
//
//hwdp:hotpath
func (f *pageFault) wake() {
	k, c := f.k, f.k.cfg.Costs
	if f.ioStatus != nvme.StatusSuccess {
		// The faults waiting on the lock find the page missing: their
		// re-walks fault again and read the block themselves.
		k.sigbus(f.th, f.as, f.va, f.frame, f.ms)
		f.unlock()
		return
	}
	if f.sw {
		f.swInstall()
		return
	}
	k.kspan(f.ms, "metadata+pte-install", f.hw, c.MetadataUpdate+c.PTEInstallReturn, f.installFn)
}

// install puts the filled page in the page cache, maps it and unlocks.
func (f *pageFault) install() {
	k := f.k
	if k.installPage(f.as, f.va, f.vma, f.idx, f.frame) && f.zero && f.hwFailed {
		// A bounced hardware zero-fill has no device time to hide the
		// refill behind: refill the free page queues before returning to
		// user.
		k.stats.FaultRefills++
		total := k.refillAll()
		k.kspan(f.ms, "fault-queue-refill", f.hw, k.cfg.Costs.RefillPerFrame*sim.Time(total), f.unlockFn)
		return
	}
	f.unlock()
}

// swInstall ends a SW-only miss: it maps the filled frame with the PTE
// left unsynced for kpted, like HWDP, and unlocks.
//
//hwdp:hotpath
func (f *pageFault) swInstall() {
	pud, pmd, pte, _ := f.as.Table.Walk(f.va)
	pte.Set(pagetable.MakePresent(f.frame, f.vma.Prot, false))
	pagetable.MarkUnsynced(pud, pmd)
	f.unlock()
}

// sigbus is the delivery model for an unrecoverable fault I/O: the paging
// request cannot be satisfied, so the kernel kills the faulting thread
// (real kernels raise SIGBUS for a failed file-backed fault). The frame
// allocated for the read is returned, and a still-unresolved PTE is
// poisoned to the plain not-present state so later accesses route straight
// to the OS path instead of re-driving hardware at a bad block.
//
//hwdp:coldpath an unrecoverable fault read needs injected device faults
func (k *Kernel) sigbus(th *Thread, as *mmu.AddressSpace, va pagetable.VAddr, frame mem.FrameID, ms *trace.Miss) {
	k.stats.SIGBUSKills++
	th.Killed = true
	if k.tracer != nil {
		k.tracer.NoteKill(ms, fmt.Sprintf("SIGBUS: unrecoverable fault I/O at %#x", uint64(va)), k.eng.Now())
	}
	if frame != mem.NoFrame {
		if err := k.mem.Free(frame); err != nil {
			panic(err)
		}
	}
	if _, _, pte, ok := as.Table.Walk(va); ok {
		if e := pte.Get(); !e.Present() {
			pte.Set(pagetable.MakeSwap(0, e.Prot()))
		}
	}
	k.mmu.TLB().Invalidate(as.ASID, va.PageNumber())
}

// installPage caches a freshly filled frame as vma's page idx and maps
// it at va. The SMU may have resolved the page for another thread while
// the frame was being filled (its miss found a refilled free page queue
// after this fault's bounced); installing over it would leak the SMU's
// frame, so the fault yields to it: the frame is freed and installPage
// reports false.
func (k *Kernel) installPage(as *mmu.AddressSpace, va pagetable.VAddr, vma *VMA, idx int, frame mem.FrameID) bool {
	if e, found := as.Table.Lookup(va); found && e.Present() {
		if err := k.mem.Free(frame); err != nil {
			panic(err)
		}
		return false
	}
	pg := k.insertPage(vma.st, vma.File, idx, frame,
		mapping{as: as, va: va.PageBase(), vma: vma})
	k.finishMap(as, va, vma, pg)
	return true
}

// finishMap installs a present PTE for pg at va and records the mapping,
// with its final PTE reference, in pg's reverse map.
func (k *Kernel) finishMap(as *mmu.AddressSpace, va pagetable.VAddr, vma *VMA, pg *Page) {
	_, _, pte := as.Table.Ensure(va.PageBase())
	pte.Set(pagetable.MakePresent(pg.frame, vma.Prot, true))
	m := mapping{as: as, va: va.PageBase(), pte: pte, vma: vma}
	// Fix up the reverse map with the final PTE ref.
	replaced := false
	for i := range pg.maps {
		if pg.maps[i].as == as && pg.maps[i].va == m.va {
			pg.maps[i] = m
			replaced = true
			break
		}
	}
	if !replaced {
		pg.maps = append(pg.maps, m)
	}
}

// refillAll refills every SMU's free page queues, in SID order, and
// returns the number of frames moved.
func (k *Kernel) refillAll() int {
	total := 0
	for _, s := range k.smus {
		total += k.refillSMU(s)
	}
	return total
}

// refillSMU moves frames from the allocator into one SMU's free page
// queue(s), respecting the kpoold reserve. It returns the number of frames
// transferred (bookkeeping only; callers charge the time).
func (k *Kernel) refillSMU(s *smu.SMU) int {
	reserve := int(float64(k.mem.Frames()) * kpooldReserveFrac)
	total := 0
	for core, q := range s.Queues() {
		space := q.Space()
		avail := int(k.mem.FreeFrames()) - reserve
		if avail < space {
			space = avail
		}
		if space <= 0 {
			continue
		}
		recs := k.refillRecs[:space]
		for i := range recs {
			f, err := k.mem.Alloc()
			if err != nil {
				panic("kernel: allocator ran dry inside a sized refill")
			}
			recs[i] = smu.RecordFor(f)
		}
		if n := s.RefillCore(core, recs); n != len(recs) {
			panic("kernel: free page queue rejected a sized refill")
		}
		total += len(recs)
	}
	return total
}
