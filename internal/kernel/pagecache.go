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
)

// lookupPage finds a resident page in the page cache.
func (k *Kernel) lookupPage(f *fs.File, idx int) *Page {
	ix := k.pcIndex[f]
	if idx >= len(ix) || ix[idx] == 0 {
		return nil
	}
	return &k.pages[ix[idx]-1]
}

// insertPage registers a freshly loaded page: page cache, LRU tail, reverse
// map. This is the OS-metadata update that the OSDP fault path does inline
// and kpted does in batch for hardware-handled misses.
func (k *Kernel) insertPage(st *storage, f *fs.File, idx int, frame mem.FrameID,
	m mapping) *Page {
	ix := k.pcIndex[f]
	if ix == nil {
		ix = k.newFrameIndex(f)
	}
	if ix[idx] != 0 {
		panic(fmt.Sprintf("kernel: page %s[%d] inserted twice", f.Name, idx))
	}
	pg := &k.pages[frame]
	if pg.cached || pg.wb {
		panic(fmt.Sprintf("kernel: frame %d inserted while it backs %s[%d]", frame, pg.file.Name, pg.idx))
	}
	pg.file, pg.st, pg.idx, pg.frame = f, st, idx, frame
	pg.maps = append(pg.maps[:0], m)
	ix[idx] = int32(frame) + 1
	k.lruPushBack(pg)
	return pg
}

// newFrameIndex makes f's page-cache index, and the frame-indexed page
// array on the first insert of the run: a machine that never caches a
// page pays nothing for it at boot.
//
//hwdp:coldpath runs once per file, on its first cached page
func (k *Kernel) newFrameIndex(f *fs.File) []int32 {
	if k.pages == nil {
		// Every slot's reverse map starts in one shared backing array,
		// one mapping per frame; a second mapping grows it off.
		k.pages = make([]Page, k.mem.Frames())
		maps := make([]mapping, len(k.pages))
		for i := range k.pages {
			k.pages[i].maps = maps[i : i : i+1]
		}
	}
	ix := make([]int32, f.Pages())
	k.pcIndex[f] = ix
	return ix
}

// uncache drops pg from its file's index and the LRU. The slot keeps the
// page's identity until its frame is freed.
func (k *Kernel) uncache(pg *Page) {
	if !pg.cached {
		return
	}
	k.pcIndex[pg.file][pg.idx] = 0
	k.lruRemove(pg)
}

// lruPushBack links pg at the LRU tail (the most recently used end).
func (k *Kernel) lruPushBack(pg *Page) {
	id := int32(pg.frame) + 1
	pg.prev, pg.next, pg.cached = k.lruTail, 0, true
	if k.lruTail != 0 {
		k.pages[k.lruTail-1].next = id
	} else {
		k.lruHead = id
	}
	k.lruTail = id
	k.lruLen++
}

// lruRemove unlinks pg from the LRU.
func (k *Kernel) lruRemove(pg *Page) {
	if pg.prev != 0 {
		k.pages[pg.prev-1].next = pg.next
	} else {
		k.lruHead = pg.next
	}
	if pg.next != 0 {
		k.pages[pg.next-1].prev = pg.prev
	} else {
		k.lruTail = pg.prev
	}
	pg.prev, pg.next, pg.cached = 0, 0, false
	k.lruLen--
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
	return k.mem.FreeFrames(), uint64(float64(total) * lowWaterFrac),
		uint64(float64(total) * highWaterFrac)
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
	r := k.allocs.Get()
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

// reclaimScan carries one clock-LRU reclaim pass (kswapd's or a direct
// reclaim's) through its per-page kernel charges: the scan step, the
// eviction of a clean page, and the writeback submission of a dirty one.
// Each phase is a method bound once when the carrier is made, so a pooled
// scan evicts without allocating.
type reclaimScan struct {
	k                               *Kernel
	hw                              *cpu.HWThread
	target, freed, scanned, maxScan int
	done                            func(freed int)

	pg  *Page  // the victim between evictPage and its kernel charge
	lba uint64 // a dirty victim's block, read at eviction time

	stepFn, freeFn, submitFn func()
}

// bind ties a new carrier to k and binds its phase callbacks. It runs
// once per carrier: the pool keeps both across reuse.
//
//hwdp:coldpath runs once per carrier, only while the scan pool grows
func (s *reclaimScan) bind(k *Kernel) {
	s.k = k
	s.stepFn, s.freeFn, s.submitFn = s.step, s.free, s.submit
}

// reclaim evicts up to target pages using the clock algorithm: pages with
// the accessed bit get a second chance (bit cleared, TLB shot down, page
// rotated); others are unmapped and freed, with dirty pages written back
// first. done receives the number of pages whose eviction began.
func (k *Kernel) reclaim(hw *cpu.HWThread, target int, done func(freed int)) {
	s := k.scans.Get()
	if s.k == nil {
		s.bind(k)
	}
	s.hw, s.target, s.maxScan, s.done = hw, target, 2*k.lruLen+1, done
	s.step()
}

// step examines the LRU's oldest page: rotate it if referenced, evict it
// otherwise, or end the pass.
//
//hwdp:hotpath
func (s *reclaimScan) step() {
	k := s.k
	if s.freed >= s.target || s.scanned >= s.maxScan || k.lruLen == 0 {
		done, freed := s.done, s.freed
		s.hw, s.done, s.pg = nil, nil, nil
		s.target, s.freed, s.scanned, s.maxScan, s.lba = 0, 0, 0, 0, 0
		k.scans.Put(s)
		done(freed)
		return
	}
	s.scanned++
	pg := &k.pages[k.lruHead-1]
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
		k.lruRemove(pg)
		k.lruPushBack(pg)
		k.kexec(s.hw, k.cfg.Costs.TLBShootdown, s.stepFn)
		return
	}
	k.evictPage(s, pg)
}

// evicted counts one page whose eviction began and scans on.
func (s *reclaimScan) evicted() {
	s.freed++
	s.step()
}

// free releases a clean victim's frame after its eviction charge.
//
//hwdp:hotpath
func (s *reclaimScan) free() {
	pg := s.pg
	s.pg = nil
	if err := s.k.mem.Free(pg.frame); err != nil {
		panic(err)
	}
	s.evicted()
}

// submit writes a dirty victim back after its eviction charge. The
// eviction continues once the write is submitted; the frame is released
// at write completion.
//
//hwdp:hotpath
func (s *reclaimScan) submit() {
	pg := s.pg
	s.pg = nil
	s.k.submitWriteback(s.hw, pg, s.lba, nil)
	s.evicted()
}

// evictPage unmaps one page from every address space and releases its
// frame. For fast-mmap VMAs the PTE is re-augmented with the file's
// current LBA (present bit cleared, LBA bit set — Section IV-B); for
// normal VMAs it reverts to a conventional non-present PTE. Dirty pages
// are written back before the frame is freed. The page leaves the page
// cache here, before any writeback: a refault during the write reads the
// block from the device (the open refault-during-writeback race in
// ROADMAP.md).
//
//hwdp:hotpath
func (k *Kernel) evictPage(s *reclaimScan, pg *Page) {
	if pg.wb {
		s.evicted() // already being cleaned; skip
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
			m.vma.setSwapped(pg.idx)
		}
		if m.vma != nil && m.vma.Fast && k.cfg.Scheme != OSDP {
			if m.vma.Anon && !m.vma.isSwapped(pg.idx) {
				// Still zero content: refault as a no-I/O zero fill.
				blk.LBA = pagetable.AnonFirstTouch
			}
			m.pte.Set(pagetable.MakeLBA(blk, m.vma.Prot))
		} else {
			m.pte.Set(pagetable.MakeSwap(0, e.Prot()))
		}
		k.mmu.TLB().Invalidate(m.as.ASID, m.va.PageNumber())
	}
	k.uncache(pg)
	k.stats.Evictions++

	s.pg = pg
	if !dirty {
		k.kexec(s.hw, k.cfg.Costs.EvictPerPage, s.freeFn)
		return
	}
	s.lba = k.startWriteback(pg)
	k.kexec(s.hw, k.cfg.Costs.EvictPerPage+k.cfg.Costs.WritebackSubmit, s.submitFn)
}

// startWriteback marks pg under writeback, counts the write in the stats
// and the dirty accounting, and returns the block it goes to.
func (k *Kernel) startWriteback(pg *Page) (lba uint64) {
	pg.wb = true
	k.stats.Writebacks++
	k.noteCleaned()
	blk, err := pg.st.fsys.Block(pg.file, pg.idx)
	if err != nil {
		panic(err)
	}
	return blk.LBA
}

// submitWriteback writes pg, already started, to lba from hw. Its
// completion is wbDone.complete; then, if not nil, runs after it.
func (k *Kernel) submitWriteback(hw *cpu.HWThread, pg *Page, lba uint64, then func()) {
	w := k.wbDones.Get()
	if w.k == nil {
		w.bind(k)
	}
	w.pg, w.then = pg, then
	k.submitIORetry(pg.st, hw, nvme.OpWrite, lba, pg.frame, nil, w.fn)
}

// wbDone is the completion of every page writeback: eviction, unmap,
// msync and the flusher. It holds the page and the caller's continuation;
// its callback is bound once per carrier (bind).
type wbDone struct {
	k    *Kernel
	pg   *Page
	then func()
	fn   func(status uint16)
}

// bind ties a new carrier to k and binds its callback. It runs once per
// carrier: the pool keeps both across reuse.
//
//hwdp:coldpath runs once per carrier, only while the writeback pool grows
func (w *wbDone) bind(k *Kernel) {
	w.k, w.fn = k, w.complete
}

// complete ends a writeback. The frame belongs to the write once the page
// has left the page cache (a dirty eviction, or an unmap of the page's
// last mapping before or during the write), and is freed here; a page
// still cached keeps it. When retries are exhausted the page's disk copy
// is stale: it is counted and the frame is handled the same way
// (data-loss accounting, not a model failure).
//
//hwdp:hotpath
func (w *wbDone) complete(status uint16) {
	k, pg, then := w.k, w.pg, w.then
	w.pg, w.then = nil, nil
	k.wbDones.Put(w)
	if status != nvme.StatusSuccess {
		k.stats.WritebackErrors++
	}
	pg.wb = false
	if !pg.cached {
		if err := k.mem.Free(pg.frame); err != nil {
			panic(err)
		}
	}
	if then != nil {
		then()
	}
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

// AuditViolation is one broken page-cache invariant found by
// AuditPageCache.
type AuditViolation struct {
	Invariant string
	Detail    string
}

// AuditPageCache checks the page cache against itself, the allocator and
// every live page table, and returns each violation found:
//
//   - index, LRU and slot agree: every page on the LRU is cached, sits in
//     the slot of its frame, and is the page its file's index names there,
//     and the indexes name no page off the LRU;
//   - resident pages never exceed physical frames, and every cached frame
//     is allocated;
//   - every present, synced PTE of a live VMA names the frame cached for
//     its (file, page), and that page's reverse map holds the PTE's
//     mapping;
//   - every present mapping in a cached page's reverse map names the
//     page's frame.
func (k *Kernel) AuditPageCache() []AuditViolation {
	var out []AuditViolation
	add := func(inv, format string, args ...any) {
		out = append(out, AuditViolation{inv, fmt.Sprintf(format, args...)})
	}
	n := 0
	var prev int32
	for i := k.lruHead; i != 0 && n <= len(k.pages); i = k.pages[i-1].next {
		n++
		pg := &k.pages[i-1]
		switch {
		case pg.prev != prev:
			add("pagecache-lru", "frame %d: prev link %d, want %d", i-1, pg.prev, prev)
		case !pg.cached:
			add("pagecache-lru", "frame %d is on the LRU but not cached", i-1)
		case pg.frame != mem.FrameID(i-1):
			add("pagecache-slot", "slot %d holds a page of frame %d", i-1, pg.frame)
		case k.lookupPage(pg.file, pg.idx) != pg:
			add("pagecache-index", "frame %d: %s[%d] is not indexed to it", i-1, pg.file.Name, pg.idx)
		case !k.mem.Allocated(pg.frame):
			add("pagecache-frame", "page cache holds unallocated frame %d", pg.frame)
		}
		for _, m := range pg.maps {
			if e := m.pte.Get(); e.Present() && e.PFN() != pg.frame {
				add("rmap", "mapping at %#x names frame %d, page frame %d", uint64(m.va), e.PFN(), pg.frame)
			}
		}
		prev = i
	}
	if n != k.lruLen || prev != k.lruTail {
		add("pagecache-lru", "LRU walk found %d pages ending at %d, want %d ending at %d",
			n, prev, k.lruLen, k.lruTail)
	}
	if uint64(k.lruLen) > k.mem.Frames() {
		add("pagecache-resident", "resident pages %d exceed frames %d", k.lruLen, k.mem.Frames())
	}
	indexed := 0
	for _, ix := range k.pcIndex {
		for _, id := range ix {
			if id != 0 {
				indexed++
			}
		}
	}
	if indexed != k.lruLen {
		add("pagecache-index", "%d indexed pages, %d on the LRU", indexed, k.lruLen)
	}
	for _, p := range k.procs {
		p.AS.Table.ScanAll(func(va pagetable.VAddr, pte pagetable.EntryRef) {
			e := pte.Get()
			if e.State() != pagetable.StateResident {
				return // unsynced PTEs are not in OS metadata yet, by design
			}
			v := p.findVMA(va)
			if v == nil {
				return
			}
			i := v.pageIndex(va)
			pg := k.lookupPage(v.File, i)
			switch {
			case pg == nil:
				add("pte-pagecache", "ASID %d: synced PTE at %#x names frame %d, but %s[%d] is not cached",
					p.AS.ASID, uint64(va), e.PFN(), v.File.Name, i)
			case pg.frame != e.PFN():
				add("pte-pagecache", "ASID %d: synced PTE at %#x names frame %d, but %s[%d] is cached in frame %d",
					p.AS.ASID, uint64(va), e.PFN(), v.File.Name, i, pg.frame)
			case !pg.mappedAt(p.AS, va):
				add("rmap", "ASID %d: synced PTE at %#x is missing from the reverse map of %s[%d]",
					p.AS.ASID, uint64(va), v.File.Name, i)
			}
		})
	}
	return out
}

// mappedAt reports whether pg's reverse map holds (as, va).
func (pg *Page) mappedAt(as *mmu.AddressSpace, va pagetable.VAddr) bool {
	for _, m := range pg.maps {
		if m.as == as && m.va == va {
			return true
		}
	}
	return false
}
