package kernel

import (
	"fmt"

	"hwdp/internal/cpu"
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
	write, hwFailed bool, ms *trace.Miss, done func()) {
	th, ok := ctx.(*Thread)
	if !ok || th == nil {
		panic("kernel: fault without thread context")
	}
	// The pipeline is no longer stalled: the CPU vectors into the kernel.
	th.endStall(k)

	p := k.procs[as.ASID-1]
	vma := p.findVMA(va)
	if vma == nil {
		// Segfault: the MMU will report BadAddr on the retried walk.
		done()
		return
	}
	idx := vma.pageIndex(va)

	// Classify using the PTE (the handler reads it anyway for triage).
	var state pagetable.State = pagetable.StateNotPresentOS
	if e, found := as.Table.Lookup(va); found {
		state = e.State()
	}
	if state == pagetable.StateResident || state == pagetable.StateResidentUnsynced {
		// Raced with a concurrent fault that already mapped the page.
		ms.SetCause(trace.CauseOSMinor)
		done()
		return
	}

	if k.cfg.Scheme == SWDP && state == pagetable.StateNotPresentLBA && !hwFailed {
		k.swFault(th, as, va, vma, idx, ms, done)
		return
	}
	f := k.getOSFault()
	f.th, f.hw, f.as, f.va, f.vma, f.idx = th, th.HW, as, va, vma, idx
	f.key, f.hwFailed, f.ms, f.done = pcKey{vma.File, idx}, hwFailed, ms, done
	c := k.cfg.Costs
	k.kspan(ms, "exception-entry", f.hw, c.Exception+c.WalkInFault+c.HandlerEntry, f.entryFn)
}

// osFault carries one conventional OSDP page fault through Figure 3's
// timeline: exception entry, VMA triage, page-cache lookup (minor) or full
// storage I/O with a context switch (major), then OS metadata and PTE
// updates. Each phase is a method bound once when the carrier is made, so
// a pooled carrier takes minor and major faults without allocating.
type osFault struct {
	k        *Kernel
	th       *Thread
	hw       *cpu.HWThread
	as       *mmu.AddressSpace
	va       pagetable.VAddr
	vma      *VMA
	idx      int
	key      pcKey
	hwFailed bool
	ms       *trace.Miss
	done     func()

	pg       *Page       // minor fault: the resident page
	frame    mem.FrameID // major fault: the frame being read into
	ioStatus uint16      // major fault: the read's final status

	entryFn, minorFn, submitFn, wakeFn, installFn func()
	frameFn                                       func(mem.FrameID)
	ioFn                                          func(status uint16)
}

//hwdp:pool acquire osfault
func (k *Kernel) getOSFault() *osFault {
	var f *osFault
	if n := len(k.faultPool); n > 0 {
		f = k.faultPool[n-1]
		k.faultPool[n-1] = nil
		k.faultPool = k.faultPool[:n-1]
	} else {
		f = &osFault{k: k}
		f.entryFn, f.minorFn, f.submitFn = f.entry, f.minor, f.submit
		f.wakeFn, f.installFn = f.wake, f.install
		f.frameFn, f.ioFn = f.onFrame, f.onIO
	}
	return f
}

// put clears f and returns it to the pool.
//
//hwdp:pool release osfault
func (f *osFault) put() {
	k := f.k
	f.th, f.hw, f.as, f.va, f.vma, f.idx = nil, nil, nil, 0, nil, 0
	f.key, f.hwFailed, f.ms, f.done = pcKey{}, false, nil, nil
	f.pg, f.frame, f.ioStatus = nil, 0, 0
	k.faultPool = append(k.faultPool, f)
}

// entry runs after exception entry: a page-cache hit is a minor fault,
// anything else reads the page in.
//
//hwdp:hotpath
func (f *osFault) entry() {
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
	if f.vma.Anon && !f.vma.isSwapped(f.idx) {
		th, as, va, vma, idx, hwFailed, ms, done := f.th, f.as, f.va, f.vma, f.idx, f.hwFailed, f.ms, f.done
		f.put()
		k.anonFault(th, as, va, vma, idx, hwFailed, ms, done)
		return
	}
	// Another thread is already reading this page in (the page-lock
	// serialization of real kernels): block until it finishes, then take
	// the minor-fault path.
	if waiters, inflight := k.faultInflight[f.key]; inflight {
		f.ms.SetCause(trace.CauseOSMinor)
		key, hw, as, va, vma, idx, ms, done := f.key, f.hw, f.as, f.va, f.vma, f.idx, f.ms, f.done
		f.put()
		k.parkOnPageLock(key, waiters, ms, hw, as, va, vma, idx, done)
		return
	}
	//hwdp:ignore hotalloc faultInflight is keyed by file page across all files, and a pending fault owns no dense slot; the map stays sized to the peak of concurrent major faults after warm-up
	k.faultInflight[f.key] = nil
	k.stats.MajorFaults++
	f.ms.SetCause(trace.CauseOSMajor)
	if f.hwFailed {
		k.stats.HWBounceFaults++
	}
	k.allocFrame(f.hw, f.frameFn)
}

// minor maps the resident page and returns to user. kswapd may have
// evicted the page during the MinorFault charge, and its frame may back
// another page by now: a page no longer cached under (file, idx) is not
// mapped, and the fault is triaged again (Linux retries the fault the
// same way). Returning instead would fail the access, since the MMU
// re-walks only once.
func (f *osFault) minor() {
	if f.k.lookupPage(f.vma.File, f.idx) != f.pg {
		f.pg = nil
		f.entry()
		return
	}
	f.k.finishMap(f.as, f.va, f.vma, f.pg)
	done := f.done
	f.put()
	done()
}

// onFrame receives the major fault's frame from the allocator.
//
//hwdp:hotpath
func (f *osFault) onFrame(frame mem.FrameID) {
	c := f.k.cfg.Costs
	f.frame = frame
	f.k.kspan(f.ms, "page-alloc+io-submit", f.hw, c.PageAlloc+c.IOSubmit, f.submitFn)
}

// submit issues the read and switches the faulting thread out while the
// device works.
//
//hwdp:hotpath
func (f *osFault) submit() {
	k := f.k
	blk, err := f.vma.st.fsys.Block(f.vma.File, f.idx)
	if err != nil {
		panic(err)
	}
	k.submitIORetry(f.vma.st, f.hw, nvme.OpRead, blk.LBA, f.frame, f.ms, f.ioFn)
	// The thread blocks: schedule away while the device works.
	f.hw.AccountContextSwitch()
	switched := nop
	if f.hwFailed {
		switched = k.refillAfterBounce(f.hw)
	}
	k.kspan(f.ms, "ctx-switch-out", f.hw, k.cfg.Costs.CtxSwitchOut, switched)
}

func nop() {}

// refillAfterBounce returns the end of a bounced hardware miss's context
// switch out: it tops up every SMU free page queue from the allocator, on
// the faulting core, overlapped with the in-flight device I/O (AIOS-style,
// Section IV-D).
//
//hwdp:coldpath runs only for hardware misses bounced for an empty free page queue, which kpoold keeps filled
func (k *Kernel) refillAfterBounce(hw *cpu.HWThread) func() {
	return func() {
		k.stats.FaultRefills++
		if total := k.refillAll(); total > 0 {
			k.kexec(hw, k.cfg.Costs.RefillPerFrame*sim.Time(total), nop)
		}
	}
}

// onIO receives the read's final status from the block layer and starts
// the wake-up: interrupt, block-layer completion, wake and schedule in.
//
//hwdp:hotpath
func (f *osFault) onIO(status uint16) {
	c := f.k.cfg.Costs
	f.ioStatus = status
	f.hw.AccountContextSwitch()
	f.k.kspan(f.ms, "irq+complete+wake", f.hw, c.InterruptDelivery+c.IOCompletion+c.WakeSchedule, f.wakeFn)
}

// wake runs once the thread is back on the core: metadata and PTE
// install, or SIGBUS when the read failed even after block-layer retries.
//
//hwdp:hotpath
func (f *osFault) wake() {
	k, c := f.k, f.k.cfg.Costs
	if f.ioStatus != nvme.StatusSuccess {
		// Waiters on the page lock observe the missing page and fail their
		// walks too: nobody hangs.
		k.sigbus(f.th, f.as, f.va, f.frame, f.ms)
		f.finish()
		return
	}
	k.kspan(f.ms, "metadata+pte-install", f.hw, c.MetadataUpdate+c.PTEInstallReturn, f.installFn)
}

// install puts the read page in the page cache and maps it.
func (f *osFault) install() {
	f.k.installPage(f.as, f.va, f.vma, f.idx, f.frame)
	f.finish()
}

// finish releases the page lock, returns to user and wakes the faults
// that waited on the lock.
//
//hwdp:hotpath
func (f *osFault) finish() {
	k := f.k
	waiters := k.faultInflight[f.key]
	delete(k.faultInflight, f.key)
	done := f.done
	f.put()
	done()
	for _, w := range waiters {
		w()
	}
}

// anonFault is an anonymous first touch (no swapped-out content): zero-fill
// a fresh frame without any I/O, the minor-fault path of real kernels and
// the fallback for bounced hardware zero-fills. The fault holds the page
// lock like the major path: allocation can park in the reclaim-retry loop,
// and a concurrent first-touch of the same page must coalesce, not insert
// the page twice.
//
//hwdp:coldpath anonymous first touches are rare on every benchmark workload; the closures here stay
func (k *Kernel) anonFault(th *Thread, as *mmu.AddressSpace, va pagetable.VAddr,
	vma *VMA, idx int, hwFailed bool, ms *trace.Miss, done func()) {
	c := k.cfg.Costs
	hw := th.HW
	key := pcKey{vma.File, idx}
	k.stats.MinorFaults++
	ms.SetCause(trace.CauseOSMinor)
	if waiters, inflight := k.faultInflight[key]; inflight {
		k.parkOnPageLock(key, waiters, ms, hw, as, va, vma, idx, done)
		return
	}
	k.faultInflight[key] = nil
	k.allocFrame(hw, func(frame mem.FrameID) {
		k.kspan(ms, "page-alloc+pte-install", hw, c.PageAlloc+c.PTEInstallReturn, func() {
			finish := func() {
				waiters := k.faultInflight[key]
				delete(k.faultInflight, key)
				done()
				for _, w := range waiters {
					w()
				}
			}
			if !k.installPage(as, va, vma, idx, frame) || !hwFailed {
				finish()
				return
			}
			// No device time to hide behind here: refill the free page
			// queue synchronously before returning to user.
			k.stats.FaultRefills++
			total := k.refillAll()
			k.kspan(ms, "fault-queue-refill", hw, c.RefillPerFrame*sim.Time(total), finish)
		})
	})
}

// parkOnPageLock queues a fault behind the in-flight fault holding key's
// page lock.
//
//hwdp:coldpath page-lock contention needs two threads faulting on one page at once, rare on every benchmark workload
func (k *Kernel) parkOnPageLock(key pcKey, waiters []func(), ms *trace.Miss, hw *cpu.HWThread,
	as *mmu.AddressSpace, va pagetable.VAddr, vma *VMA, idx int, done func()) {
	k.faultInflight[key] = append(waiters, k.pageLockWaiter(ms, hw, as, va, vma, idx, done))
}

// pageLockWaiter builds the continuation for a fault parked on another
// fault's page lock: when the holder finishes, the waiter takes the
// minor-fault path off the page cache. The page can be absent (the
// holder's I/O failed) or the PTE already resolved (the SMU beat the OS
// to it); both cases just return — the retried walk settles the access.
func (k *Kernel) pageLockWaiter(ms *trace.Miss, hw *cpu.HWThread, as *mmu.AddressSpace,
	va pagetable.VAddr, vma *VMA, idx int, done func()) func() {
	waitStart := k.eng.Now()
	return func() {
		ms.AddSpan(trace.LayerKernel, "page-lock-wait", waitStart, k.eng.Now())
		k.kspan(ms, "minor-fault", hw, k.cfg.Costs.MinorFault, func() {
			if e, found := as.Table.Lookup(va); found && e.Present() {
				done()
				return
			}
			if pg := k.lookupPage(vma.File, idx); pg != nil {
				k.finishMap(as, va, vma, pg)
			}
			done()
		})
	}
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
		frames := k.mem.AllocN(space)
		recs := make([]smu.FrameRecord, len(frames))
		for i, f := range frames {
			recs[i] = smu.RecordFor(f)
		}
		if n := s.RefillCore(core, recs); n != len(recs) {
			panic("kernel: free page queue rejected a sized refill")
		}
		total += len(recs)
	}
	return total
}

// swFault is the SW-only scheme (Fig. 17): the exception is taken, an early
// LBA-bit check routes to a function that emulates the SMU in software —
// PMSHR kept as a memory table, the NVMe command issued by the kernel, and
// monitor/mwait used to wait for the completion without a context switch.
// OS metadata stays batched via kpted, like HWDP.
//
//hwdp:coldpath the SW-only scheme runs only in the Fig. 17 comparison, on no benchmark workload; its closures stay
func (k *Kernel) swFault(th *Thread, as *mmu.AddressSpace, va pagetable.VAddr,
	vma *VMA, idx int, ms *trace.Miss, done func()) {
	c := k.cfg.Costs
	hw := th.HW
	k.stats.SWFaults++
	ms.SetCause(trace.CauseSWMiss)
	k.kspan(ms, "exception+sw-check", hw, c.Exception+c.SWCheck, func() {
		_, _, pte, ok := as.Table.Walk(va)
		if !ok {
			panic("kernel: sw fault on unpopulated table")
		}
		addr := pte.Addr()
		if waiters, dup := k.swPMSHR[addr]; dup {
			// Emulated-PMSHR hit: wait for the original fault. mwait until
			// the completion broadcast.
			if ms != nil {
				waitStart, orig := k.eng.Now(), done
				done = func() {
					ms.AddSpan(trace.LayerKernel, "sw-pmshr-wait", waitStart, k.eng.Now())
					orig()
				}
			}
			k.swPMSHR[addr] = append(waiters, done)
			return
		}
		k.swPMSHR[addr] = nil
		k.kspan(ms, "sw-pmshr", hw, c.SWPMSHR, func() {
			k.allocFrame(hw, func(frame mem.FrameID) {
				blk := pte.Get().Block()
				if blk.LBA == pagetable.AnonFirstTouch {
					// Emulated SMU bypasses I/O for first-touch anonymous
					// pages, like the hardware.
					ms.SetCause(trace.CauseAnonZeroFill)
					k.kspan(ms, "sw-complete", hw, c.SWComplete, func() {
						pud, pmd, pteRef, _ := as.Table.Walk(va)
						pteRef.Set(pagetable.MakePresent(frame, vma.Prot, false))
						pagetable.MarkUnsynced(pud, pmd)
						waiters := k.swPMSHR[addr]
						delete(k.swPMSHR, addr)
						done()
						for _, w := range waiters {
							w()
						}
					})
					return
				}
				k.kspan(ms, "sw-submit", hw, c.SWSubmit, func() {
					th.beginStall(k) // mwait: core waits, issues nothing
					k.submitIORetry(vma.st, hw, nvme.OpRead, blk.LBA, frame, ms, func(status uint16) {
						// The interrupt handler touches the monitored
						// address; the mwait returns and the routine
						// finishes the miss.
						th.endStall(k)
						k.kspan(ms, "irq+sw-complete", hw, c.InterruptDelivery+c.SWComplete, func() {
							if status != nvme.StatusSuccess {
								// Unrecoverable: SIGBUS, and fail every fault
								// coalesced on the emulated PMSHR entry.
								k.sigbus(th, as, va, frame, ms)
								waiters := k.swPMSHR[addr]
								delete(k.swPMSHR, addr)
								done()
								for _, w := range waiters {
									w()
								}
								return
							}
							pud, pmd, pteRef, _ := as.Table.Walk(va)
							pteRef.Set(pagetable.MakePresent(frame, vma.Prot, false))
							pagetable.MarkUnsynced(pud, pmd)
							waiters := k.swPMSHR[addr]
							delete(k.swPMSHR, addr)
							done()
							for _, w := range waiters {
								w()
							}
						})
					})
				})
			})
		})
	})
}
