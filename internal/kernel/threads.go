package kernel

import (
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/smu"
)

// kptedTick is one period of the kpted kernel thread (Section IV-C): scan
// the page tables of fast-mmap'ed regions for hardware-handled PTEs
// (resident + LBA bit), update the OS metadata for each in batch, and
// clear the LBA bits. The upper-level LBA bits let the scan skip clean
// subtrees.
func (k *Kernel) kptedTick() {
	k.stats.KptedRuns++
	var visited, matched uint64
	for _, p := range k.procs {
		p := p
		st := p.AS.Table.ScanUnsynced(func(va pagetable.VAddr, pte pagetable.EntryRef) {
			k.syncPageMetadata(p, va, pte)
		})
		visited += st.PTEsVisited
		matched += st.PTEsMatched
	}
	k.stats.KptedPTEsSeen += visited
	cost := k.cfg.Costs.KptedPerPTE*sim.Time(visited) +
		k.cfg.Costs.KptedPerSync*sim.Time(matched)
	finish := func() { k.eng.Post(k.cfg.KptedPeriod, k.kptedTick) }
	if cost > 0 {
		k.kexec(k.kptedHW, cost, finish)
	} else {
		finish()
	}
}

// kpooldTick is one period of the kpoold kernel thread (Section IV-D):
// refill every SMU's free page queue in the background so the fault path
// rarely sees an empty queue.
func (k *Kernel) kpooldTick() {
	total := k.refillAll()
	k.stats.KpooldFrames += uint64(total)
	finish := func() { k.eng.Post(k.cfg.KpooldPeriod, k.kpooldTick) }
	if total > 0 {
		k.kexec(k.kpooldHW, k.cfg.Costs.KpooldPerPage*sim.Time(total), finish)
	} else {
		finish()
	}
}

// smuTicker is one socket's sharded kpoold schedule (Config.ShardKpoold):
// it pre-binds the tick callback at Start so each reschedule posts the
// stored func instead of allocating a fresh closure per period.
type smuTicker struct {
	k    *Kernel
	s    *smu.SMU
	tick func()
}

func (t *smuTicker) run() { t.k.kpooldTickSMU(t.s, t.tick) }

// kpooldTickSMU is one period of a sharded kpoold: the same refill work as
// kpooldTick, but scoped to one socket's SMU so each socket's sweep fires
// on its own staggered schedule. resched is the ticker's pre-bound tick.
func (k *Kernel) kpooldTickSMU(s *smu.SMU, resched func()) {
	n := k.refillSMU(s)
	k.stats.KpooldFrames += uint64(n)
	finish := func() { k.eng.Post(k.cfg.KpooldPeriod, resched) }
	if n > 0 {
		k.kexec(k.kpooldHW, k.cfg.Costs.KpooldPerPage*sim.Time(n), finish)
	} else {
		finish()
	}
}

// kswapdTick is the background reclaim thread: keep free memory between
// the watermarks by evicting cold pages from the clock LRU.
func (k *Kernel) kswapdTick() {
	free, low, high := k.freeLevel()
	if free >= low || k.reclaiming {
		k.eng.Post(k.cfg.KswapdPeriod, k.kswapdFn)
		return
	}
	k.reclaiming = true
	k.reclaim(k.kswapdHW, int(high-free), k.kswapdDoneFn)
}

// kswapdDone ends a kswapd reclaim pass and schedules the next tick.
func (k *Kernel) kswapdDone(int) {
	k.reclaiming = false
	k.eng.Post(k.cfg.KswapdPeriod, k.kswapdFn)
}
