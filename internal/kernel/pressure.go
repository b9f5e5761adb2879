package kernel

// Memory-pressure machinery: the allocation reclaim-retry loop's pooled
// carrier, approximate dirty-page accounting with background writeback
// (the flusher) and dirty-ratio write throttling, and the OOM killer.
// Everything here is off by default — the knobs in Config
// (DirtyRatioFrac, OOMStallLimit) gate all behavior changes, so default
// runs stay byte-identical.

import (
	"fmt"

	"hwdp/internal/cpu"
	"hwdp/internal/mem"
	"hwdp/internal/metrics"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
)

// allocReq carries a stalled allocation through the reclaim-retry loop
// without a per-poll closure.
type allocReq struct {
	hw    *cpu.HWThread
	done  func(mem.FrameID)
	since sim.Time // when the stall began (PSI interval, OOM deadline base)
}

//hwdp:pool acquire allocreq
func (k *Kernel) getAllocReq() *allocReq {
	if n := len(k.allocPool); n > 0 {
		r := k.allocPool[n-1]
		k.allocPool[n-1] = nil
		k.allocPool = k.allocPool[:n-1]
		return r
	}
	return &allocReq{}
}

//hwdp:pool release allocreq
func (k *Kernel) putAllocReq(r *allocReq) {
	*r = allocReq{}
	k.allocPool = append(k.allocPool, r)
}

// runAllocRetry is the pre-bound PostArg callback for the 50 µs
// allocation retry poll. Past Config.OOMStallLimit it invokes the OOM
// killer before the next reclaim pass.
func (k *Kernel) runAllocRetry(a any) {
	r := a.(*allocReq)
	if f, err := k.mem.Alloc(); err == nil {
		k.allocDone(r, f)
		return
	}
	if lim := k.cfg.OOMStallLimit; lim > 0 && k.eng.Now()-r.since >= lim {
		if k.oomKill(r.hw) {
			// Freed memory arrives asynchronously (dirty victim pages
			// write back first); restart the stall clock so one kill gets
			// a chance to land before the next.
			r.since = k.eng.Now()
		}
	}
	k.allocReclaim(r)
}

// allocDone completes a stalled allocation: close the PSI interval,
// recycle the carrier, deliver the frame.
func (k *Kernel) allocDone(r *allocReq, f mem.FrameID) {
	now := k.eng.Now()
	k.psi.EndStall(metrics.StallAlloc, int64(now), int64(now-r.since))
	done := r.done
	k.putAllocReq(r)
	done(f)
}

// noteDirtied is the MMU's clean→dirty hook (armed only when
// Config.DirtyRatioFrac is set). Past the background limit it kicks the
// flusher.
func (k *Kernel) noteDirtied() {
	k.dirtyPages++
	if k.dirtyPages > k.dirtyBgLimit {
		k.kickFlusher()
	}
}

// noteCleaned records one writeback submission in the dirty accounting.
// The counter is approximate (a page dirtied through several PTEs counts
// once per PTE transition but once per writeback), so it clamps at zero.
func (k *Kernel) noteCleaned() {
	if k.dirtyPages > 0 {
		k.dirtyPages--
	}
}

// kickFlusher starts a background writeback sweep unless one is already
// running or dirty accounting is off.
func (k *Kernel) kickFlusher() {
	if k.flushing || k.dirtyBgLimit <= 0 {
		return
	}
	k.flushing = true
	k.flushSweep()
}

// flushSweep is one flusher iteration: collect dirty pages from the cold
// end of the LRU and write them back until the count is under the
// background limit. When nothing is flushable (every dirty page already
// under writeback, or counter drift) the flusher stops; the next
// noteDirtied restarts it.
func (k *Kernel) flushSweep() {
	if k.dirtyPages <= k.dirtyBgLimit {
		k.flushing = false
		return
	}
	batch := k.collectDirty(k.dirtyPages - k.dirtyBgLimit)
	if len(batch) == 0 {
		k.flushing = false
		return
	}
	k.stats.FlusherRuns++
	k.flushBatch(batch, 0)
}

// flushRef is one page collected for background writeback, with the
// identity it had at collection.
type flushRef struct {
	pg  *Page
	key pcKey
}

// collectDirty walks the LRU from the cold end and returns up to target
// pages with at least one dirty present PTE and no writeback in flight.
func (k *Kernel) collectDirty(target int) []flushRef {
	var batch []flushRef
	for i := k.lruHead; i != 0 && len(batch) < target; i = k.pages[i-1].next {
		pg := &k.pages[i-1]
		if pg.wb {
			continue
		}
		for _, m := range pg.maps {
			if ent := m.pte.Get(); ent.Present() && ent.Dirty() {
				batch = append(batch, flushRef{pg, pcKey{pg.file, pg.idx}})
				break
			}
		}
	}
	return batch
}

// flushBatch writes back one collected page per WritebackSubmit charge on
// the kswapd hardware thread, then re-sweeps.
func (k *Kernel) flushBatch(batch []flushRef, i int) {
	if i >= len(batch) {
		k.flushSweep()
		return
	}
	r := batch[i]
	if !k.flushable(r) {
		k.flushBatch(batch, i+1)
		return
	}
	k.kexec(k.kswapdHW, k.cfg.Costs.WritebackSubmit, func() {
		if k.flushable(r) {
			k.flushPage(r.pg)
		}
		k.flushBatch(batch, i+1)
	})
}

// flushable reports whether a collected page still needs its flush. Since
// collection, and during the submit charge, the page may have been claimed
// by another writeback or evicted, and its frame may back another page by
// now: only the page still cached under the collected identity is flushed.
func (k *Kernel) flushable(r flushRef) bool {
	return !r.pg.wb && k.lookupPage(r.key.file, r.key.idx) == r.pg
}

// flushPage cleans one page in place: PTE dirty bits are cleared (the
// dirty bit is re-observed from memory on the next write; the TLB
// shootdown of a real kernel is folded into the submit charge), anonymous
// content is recorded as swap-backed, and the block is written out. The
// frame stays resident — unlike eviction, background writeback only
// cleans.
func (k *Kernel) flushPage(pg *Page) {
	for _, m := range pg.maps {
		e := m.pte.Get()
		if !e.Present() || !e.Dirty() {
			continue
		}
		m.pte.Set(e.ClearFlags(pagetable.FlagDirty))
		if m.vma != nil && m.vma.Anon {
			m.vma.setSwapped(pg.idx)
		}
	}
	k.stats.FlusherPages++
	k.submitWriteback(k.kswapdHW, pg, k.startWriteback(pg), nil)
}

// throttleReq carries a throttled write through the backoff loop without
// a per-slice closure.
type throttleReq struct {
	th    *Thread
	va    pagetable.VAddr
	done  func(mmu.Result)
	since sim.Time
	spins int
}

//hwdp:pool acquire throttlereq
func (k *Kernel) getThrottleReq() *throttleReq {
	if n := len(k.throttlePool); n > 0 {
		r := k.throttlePool[n-1]
		k.throttlePool[n-1] = nil
		k.throttlePool = k.throttlePool[:n-1]
		return r
	}
	return &throttleReq{}
}

//hwdp:pool release throttlereq
func (k *Kernel) putThrottleReq(r *throttleReq) {
	*r = throttleReq{}
	k.throttlePool = append(k.throttlePool, r)
}

// throttleMaxSpins bounds the throttle loop: after this many backoff
// slices the write proceeds regardless, guaranteeing forward progress
// even if the flusher cannot keep up.
const throttleMaxSpins = 512

// throttle parks a write that hit the hard dirty limit: the thread
// sleeps in backoff slices, kicking the flusher, until the dirty count
// drops (balance_dirty_pages).
//
//hwdp:coldpath writes throttle only with Config.DirtyRatioFrac set, at the hard dirty limit
func (k *Kernel) throttle(th *Thread, va pagetable.VAddr, done func(mmu.Result)) {
	k.stats.ThrottledWrites++
	r := k.getThrottleReq()
	r.th, r.va, r.done, r.since = th, va, done, k.eng.Now()
	k.psi.BeginStall(metrics.StallWritebackThrottle, int64(r.since))
	k.kickFlusher()
	k.eng.PostArg(throttleSlice, k.throttleFn, r)
}

// runThrottle is the pre-bound PostArg callback for one throttle slice.
func (k *Kernel) runThrottle(a any) {
	r := a.(*throttleReq)
	r.spins++
	if k.dirtyPages >= k.dirtyHardLimit && r.spins < throttleMaxSpins && !r.th.Killed {
		k.kickFlusher()
		k.eng.PostArg(throttleSlice, k.throttleFn, r)
		return
	}
	now := k.eng.Now()
	k.psi.EndStall(metrics.StallWritebackThrottle, int64(now), int64(now-r.since))
	th, va, done := r.th, r.va, r.done
	k.putThrottleReq(r)
	k.accessNow(th, va, true, done)
}

// throttleSlice is one write-throttle sleep slice.
const throttleSlice = 100 * sim.Microsecond

// oomKill selects and kills the live process with the largest resident
// set (ties break toward the oldest process — the scan is in creation
// order, deterministically). It returns false when no victim remains.
func (k *Kernel) oomKill(hw *cpu.HWThread) bool {
	var victim *Process
	best := 0
	for _, p := range k.procs {
		if p.oomKilled {
			continue
		}
		if rss := p.residentPages(); rss > best {
			best, victim = rss, p
		}
	}
	if victim == nil {
		return false
	}
	k.stats.OOMKills++
	victim.oomKilled = true
	for _, th := range victim.threads {
		th.Killed = true
	}
	if k.tracer != nil {
		k.tracer.NoteKill(nil, fmt.Sprintf("OOM: killed ASID %d (%d resident pages)",
			victim.AS.ASID, best), k.eng.Now())
	}
	k.oomReap(victim, hw)
	return true
}

// residentPages counts present PTEs — the victim-selection RSS.
func (p *Process) residentPages() int {
	n := 0
	p.AS.Table.ScanAll(func(_ pagetable.VAddr, pte pagetable.EntryRef) {
		if pte.Get().Present() {
			n++
		}
	})
	return n
}

// oomReap tears down every live VMA of an OOM victim, reusing the
// munmap machinery: fast-mmap regions drain the SMU barrier first (the
// unmap race of Section IV-C applies to kills too), dirty pages write
// back before their frames free, and conservation invariants hold
// throughout. In-flight faults that complete after the reap re-insert
// their page into the cache (benign: the page is clean, unmapped by the
// dead VMA, and evicts normally).
func (k *Kernel) oomReap(victim *Process, hw *cpu.HWThread) {
	for _, vma := range victim.vmas {
		if !vma.dead {
			k.afterBarrier(vma, func() { k.reapVMA(victim, vma, hw) })
		}
	}
}

// reapVMA is the teardown half of oomReap for one VMA.
func (k *Kernel) reapVMA(p *Process, vma *VMA, hw *cpu.HWThread) {
	_, unmapped := k.unmapVMA(p, vma)
	k.stats.OOMReapedPages += uint64(unmapped)
	if unmapped > 0 {
		k.kexec(hw, k.cfg.Costs.EvictPerPage*sim.Time(unmapped), nop)
	}
}
