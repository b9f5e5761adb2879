package kernel

import (
	"hwdp/internal/cpu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/smu"
)

// daemon is one periodic kernel thread: kpted, kpoold or kswapd. Each tick
// runs work on hw, charges the kernel time work returns and sleeps for
// period.
type daemon struct {
	k      *Kernel
	hw     *cpu.HWThread
	period sim.Time
	// work runs one period's work and returns its kernel time, or
	// ongoing when the work goes on past the tick and calls sleep itself.
	work func(d *daemon) sim.Time

	// tickFn, sleepFn and passDoneFn are tick, sleep and reclaimed, bound
	// once.
	tickFn, sleepFn func()
	passDoneFn      func(int)
}

// ongoing is the kernel time of a daemon's work that ends after its tick.
const ongoing sim.Time = -1

// startDaemon binds a daemon's callbacks and posts its first tick, first
// from now.
func (k *Kernel) startDaemon(hw *cpu.HWThread, period, first sim.Time, work func(*daemon) sim.Time) *daemon {
	d := &daemon{k: k, hw: hw, period: period, work: work}
	d.tickFn, d.sleepFn, d.passDoneFn = d.tick, d.sleep, d.reclaimed
	k.eng.Post(first, d.tickFn)
	return d
}

func (d *daemon) tick() {
	if cost := d.work(d); cost > 0 {
		d.k.kexec(d.hw, cost, d.sleepFn)
	} else if cost == 0 {
		d.sleep()
	}
}

func (d *daemon) sleep() { d.k.eng.Post(d.period, d.tickFn) }

// reclaimed ends a kswapd reclaim pass.
func (d *daemon) reclaimed(int) { d.sleep() }

// kptedWork is one period of kpted (Section IV-C): scan the page tables
// of fast-mmap'ed regions for hardware-handled PTEs (resident + LBA bit),
// update the OS metadata for each in batch, and clear the LBA bits. The
// upper-level sync marks let the scan skip clean subtrees; kpted clears
// them once a table is scanned.
func (k *Kernel) kptedWork(*daemon) sim.Time {
	k.stats.KptedRuns++
	var visited, matched uint64
	for _, p := range k.procs {
		st := k.syncRange(p, 0, pagetable.MaxVAddr)
		p.AS.Table.ClearSyncMarks()
		visited += st.PTEsVisited
		matched += st.PTEsMatched
	}
	k.stats.KptedPTEsSeen += visited
	return k.cfg.Costs.KptedPerPTE*sim.Time(visited) +
		k.cfg.Costs.KptedPerSync*sim.Time(matched)
}

// syncRange synchronizes OS metadata for every hardware-handled PTE of p
// in [lo, hi), in VA order: the one sync routine of kpted, msync, munmap
// and fork (Section IV-C). It leaves the sync marks to kpted.
func (k *Kernel) syncRange(p *Process, lo, hi pagetable.VAddr) pagetable.ScanStats {
	return p.AS.Table.ScanUnsynced(lo, hi, func(va pagetable.VAddr, pte pagetable.EntryRef) {
		k.syncPageMetadata(p, va, pte)
	})
}

// kpooldWork returns the work of a kpoold over smus (Section IV-D): refill
// each SMU's free page queue in the background so the fault path rarely
// sees an empty queue.
func (k *Kernel) kpooldWork(smus []*smu.SMU) func(*daemon) sim.Time {
	return func(*daemon) sim.Time {
		n := k.refill(smus)
		k.stats.KpooldFrames += uint64(n)
		return k.cfg.Costs.KpooldPerPage * sim.Time(n)
	}
}

// kswapdWork is one period of the background reclaim thread: keep free
// memory between the watermarks by evicting cold pages from the clock LRU.
// Its reclaim pass charges its own kernel time.
func (k *Kernel) kswapdWork(d *daemon) sim.Time {
	free, low, high := k.freeLevel()
	if free >= low {
		return 0
	}
	k.reclaim(d.hw, int(high-free), d.passDoneFn)
	return ongoing
}
