package kernel

import (
	"fmt"

	"hwdp/internal/cpu"
	"hwdp/internal/fs"
	"hwdp/internal/mem"
	"hwdp/internal/metrics"
	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
)

// lookupPage finds a resident page in the page cache.
func (k *Kernel) lookupPage(f *fs.File, idx int) *Page {
	return k.pageCache[pcKey{f, idx}]
}

// insertPage registers a freshly loaded page: page cache, LRU tail, reverse
// map. This is the OS-metadata update that the OSDP fault path does inline
// and kpted does in batch for hardware-handled misses.
func (k *Kernel) insertPage(st *storage, f *fs.File, idx int, frame mem.FrameID,
	m mapping) *Page {
	key := pcKey{f, idx}
	if k.pageCache[key] != nil {
		panic(fmt.Sprintf("kernel: page %s[%d] inserted twice", f.Name, idx))
	}
	pg := &Page{frame: frame, file: f, idx: idx, st: st, maps: []mapping{m}}
	k.pageCache[key] = pg
	pg.elem = k.lru.PushBack(pg)
	return pg
}

// mapExisting adds a mapping to an already-resident page (minor fault or a
// second VMA mapping the same file page).
func (k *Kernel) mapExisting(pg *Page, m mapping) {
	for _, old := range pg.maps {
		if old.as == m.as && old.va == m.va {
			return
		}
	}
	pg.maps = append(pg.maps, m)
}

// freeLevel returns current free frames and the low/high watermarks.
func (k *Kernel) freeLevel() (free, low, high uint64) {
	total := k.mem.Frames()
	return k.mem.FreeFrames(), uint64(float64(total) * k.cfg.LowWaterFrac),
		uint64(float64(total) * k.cfg.HighWaterFrac)
}

// allocFrame hands out a frame, entering direct reclaim when the allocator
// is empty. done receives the frame; the caller charges ordinary
// allocation cost, this function charges only the direct-reclaim penalty.
//
// A stalled allocation rides a pooled allocReq carrier through the
// reclaim-retry loop — under sustained oversubscription the 50 µs polls
// repeat many times, so the retry must not allocate a closure per
// attempt (the same discipline as kexec's poll).
func (k *Kernel) allocFrame(hw *cpu.HWThread, done func(mem.FrameID)) {
	if f, err := k.mem.Alloc(); err == nil {
		done(f)
		return
	}
	r := k.getAllocReq()
	r.hw, r.done, r.since = hw, done, k.eng.Now()
	k.stats.AllocStalls++
	k.psi.BeginStall(metrics.StallAlloc, int64(r.since))
	k.allocReclaim(r)
}

// allocReclaim runs one direct-reclaim pass for a stalled allocation:
// either the retried Alloc succeeds, or the next 50 µs poll is scheduled.
//
//hwdp:coldpath direct reclaim runs only when the allocator is empty; kswapd keeps free memory above the low watermark in steady state
func (k *Kernel) allocReclaim(r *allocReq) {
	k.stats.DirectReclaims++
	k.kexec(r.hw, k.cfg.Costs.DirectReclaim, func() {
		k.reclaim(r.hw, 32, func(int) {
			if f, err := k.mem.Alloc(); err == nil {
				k.allocDone(r, f)
				return
			}
			// Still nothing (all pages referenced or under writeback):
			// retry shortly; forward progress comes from writeback
			// completions — or, past Config.OOMStallLimit, from the OOM
			// killer (see runAllocRetry).
			k.eng.PostArg(50*sim.Microsecond, k.allocFn, r)
		})
	})
}

// reclaim evicts up to target pages using the clock algorithm: pages with
// the accessed bit get a second chance (bit cleared, TLB shot down, page
// rotated); others are unmapped and freed, with dirty pages written back
// first. done receives the number of pages whose eviction began.
func (k *Kernel) reclaim(hw *cpu.HWThread, target int, done func(freed int)) {
	freed := 0
	scanned := 0
	maxScan := 2*k.lru.Len() + 1
	var step func()
	step = func() {
		if freed >= target || scanned >= maxScan || k.lru.Len() == 0 {
			done(freed)
			return
		}
		scanned++
		front := k.lru.Front()
		pg := front.Value.(*Page)
		// Referenced? Clear accessed bits and give a second chance.
		referenced := false
		for _, m := range pg.maps {
			e := m.pte.Get()
			if e.Present() && e.Accessed() {
				referenced = true
				m.pte.Set(e.ClearFlags(pagetable.FlagAccessed))
				k.mmu.TLB().Invalidate(m.as.ASID, m.va.PageNumber())
			}
		}
		if referenced {
			k.lru.MoveToBack(front)
			k.kexec(hw, k.cfg.Costs.TLBShootdown, step)
			return
		}
		k.evictPage(hw, pg, func() {
			freed++
			step()
		})
	}
	step()
}

// evictPage unmaps one page from every address space and releases its
// frame. For fast-mmap VMAs the PTE is re-augmented with the file's
// current LBA (present bit cleared, LBA bit set — Section IV-B); for
// normal VMAs it reverts to a conventional non-present PTE. Dirty pages
// are written back before the frame is freed.
func (k *Kernel) evictPage(hw *cpu.HWThread, pg *Page, done func()) {
	if pg.wb {
		done() // already being cleaned; skip
		return
	}
	dirty := false
	for _, m := range pg.maps {
		e := m.pte.Get()
		if !e.Present() {
			continue
		}
		if e.Dirty() {
			dirty = true
		}
		blk, err := pg.st.fsys.Block(pg.file, pg.idx)
		if err != nil {
			panic(err)
		}
		if m.vma != nil && m.vma.Anon && e.Dirty() {
			// The page's content will live in swap from now on.
			m.vma.swapped[pg.idx] = true
		}
		if m.vma != nil && m.vma.Fast && k.cfg.Scheme != OSDP {
			if m.vma.Anon && !m.vma.swapped[pg.idx] {
				// Still zero content: refault as a no-I/O zero fill.
				blk.LBA = pagetable.AnonFirstTouch
			}
			m.pte.Set(pagetable.MakeLBA(blk, m.vma.Prot))
		} else {
			m.pte.Set(pagetable.MakeSwap(0, e.Prot()))
		}
		k.mmu.TLB().Invalidate(m.as.ASID, m.va.PageNumber())
	}
	delete(k.pageCache, pcKey{pg.file, pg.idx})
	if pg.elem != nil {
		k.lru.Remove(pg.elem)
		pg.elem = nil
	}
	k.stats.Evictions++

	finish := func() {
		if err := k.mem.Free(pg.frame); err != nil {
			panic(err)
		}
		done()
	}
	if !dirty {
		k.kexec(hw, k.cfg.Costs.EvictPerPage, finish)
		return
	}
	// Dirty: write back, then free. The eviction continues (done) once the
	// write is submitted; the frame is released at write completion.
	pg.wb = true
	k.stats.Writebacks++
	k.noteCleaned()
	blk, _ := pg.st.fsys.Block(pg.file, pg.idx)
	k.kexec(hw, k.cfg.Costs.EvictPerPage+k.cfg.Costs.WritebackSubmit, func() {
		k.submitIORetry(pg.st, hw, nvme.OpWrite, blk.LBA, pg.frame, nil, func(status uint16) {
			if status != nvme.StatusSuccess {
				// Retries exhausted: the page's disk copy is stale. Count it
				// and move on — the frame is reclaimed regardless (data-loss
				// accounting, not a model failure).
				k.stats.WritebackErrors++
			}
			pg.wb = false
			if err := k.mem.Free(pg.frame); err != nil {
				panic(err)
			}
		})
		done()
	})
}

// syncPageMetadata performs the OS-metadata update for one hardware-handled
// PTE found by kpted (or by msync/munmap): build the struct page, insert
// into the LRU and page cache, set up the reverse mapping, and clear the
// PTE's LBA bit. Zero-cost in time here; callers charge KptedPerSync.
func (k *Kernel) syncPageMetadata(p *Process, va pagetable.VAddr, pte pagetable.EntryRef) {
	e := pte.Get()
	if e.State() != pagetable.StateResidentUnsynced {
		return
	}
	vma := p.findVMA(va)
	if vma == nil {
		// Raced with munmap; the barrier protocol should prevent this.
		panic(fmt.Sprintf("kernel: unsynced PTE without VMA at %#x", uint64(va)))
	}
	idx := vma.pageIndex(va)
	m := mapping{as: p.AS, va: va.PageBase(), pte: pte, vma: vma}
	if pg := k.lookupPage(vma.File, idx); pg != nil {
		k.mapExisting(pg, m)
	} else {
		k.insertPage(vma.st, vma.File, idx, e.PFN(), m)
	}
	pte.Set(e.ClearFlags(pagetable.FlagLBA))
	k.stats.KptedSyncs++
}
