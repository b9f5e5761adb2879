package kernel

import (
	"errors"
	"fmt"

	"hwdp/internal/fs"
	"hwdp/internal/mem"
	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
)

// MmapFlags extends the POSIX mmap flags with the paper's fast-mmap flag
// (Section IV-B) and MAP_POPULATE (used by the "ideal" baseline in Fig. 4).
type MmapFlags struct {
	// Fast requests hardware demand paging for the area: every PTE is
	// LBA-augmented at map time. Ignored (conventional behavior) when the
	// kernel runs the OSDP scheme.
	Fast bool
	// Populate pre-loads every page into memory at map time.
	Populate bool
}

// ErrNoMemory is returned when Populate cannot fit the file in memory.
var ErrNoMemory = errors.New("kernel: not enough memory to populate mapping")

// Mmap maps a file into the process. The call itself is a control-path
// operation (the paper: "mmap is usually in a control path, which does not
// affect application performance"); it completes in zero virtual time, but
// records the per-PTE augmentation work in the MmapPages counter for the
// space/latency overhead discussion.
func (k *Kernel) Mmap(p *Process, sid, devID uint8, f *fs.File,
	prot pagetable.Prot, flags MmapFlags) (pagetable.VAddr, error) {
	st := k.storage(sid, devID)
	if st == nil {
		return 0, fmt.Errorf("kernel: no storage at sid%d/dev%d", sid, devID)
	}
	pages := f.Pages()
	base := p.nextMap
	// Leave a guard gap and keep regions in distinct 1 GiB-aligned chunks
	// so separate VMAs live under separate PUD entries.
	span := (pagetable.VAddr(pages)*4096 + (1 << 30)) &^ ((1 << 30) - 1)
	p.nextMap += span
	vma := &VMA{Start: base, Pages: pages, File: f, st: st,
		Fast: flags.Fast && k.cfg.Scheme != OSDP, Prot: prot, proc: p}
	p.vmas = append(p.vmas, vma)
	k.stats.MmapPages += uint64(pages)

	if flags.Populate {
		if err := k.populate(p, vma); err != nil {
			return 0, err
		}
	}
	if vma.Fast {
		f.Marked = true
		for i := 0; i < pages; i++ {
			va := base + pagetable.VAddr(i)*4096
			_, _, pte := p.AS.Table.Ensure(va)
			if pte.Get().Present() {
				continue // populated, or already resident via page cache
			}
			if pg := k.lookupPage(f, i); pg != nil {
				// Page resident in the OS page cache: link it directly.
				k.finishMap(p.AS, va, vma, pg)
				continue
			}
			blk, err := st.fsys.Block(f, i)
			if err != nil {
				return 0, err
			}
			pte.Set(pagetable.MakeLBA(blk, prot))
		}
	}
	return base, nil
}

// populate pre-loads every page of the VMA (MAP_POPULATE), bypassing
// virtual time: it is experiment setup, not a measured path.
func (k *Kernel) populate(p *Process, vma *VMA) error {
	for i := 0; i < vma.Pages; i++ {
		va := vma.Start + pagetable.VAddr(i)*4096
		if pg := k.lookupPage(vma.File, i); pg != nil {
			k.finishMap(p.AS, va, vma, pg)
			continue
		}
		frame, err := k.mem.Alloc()
		if err != nil {
			return ErrNoMemory
		}
		blk, err := vma.st.fsys.Block(vma.File, i)
		if err != nil {
			return err
		}
		if err := vma.st.fsys.ReadDMA(k.mem, frame, blk.LBA); err != nil {
			return err
		}
		pg := k.insertPage(vma.st, vma.File, i, frame,
			mapping{as: p.AS, va: va, vma: vma})
		k.finishMap(p.AS, va, vma, pg)
	}
	return nil
}

// MmapAnon maps `pages` of anonymous memory (heap/stack-style). Under
// HWDP/SW-only with fast=true, every PTE is LBA-augmented with the
// reserved first-touch constant so the SMU zero-fills misses without I/O;
// evicted dirty pages go to a hidden swap backing on <sid, devID> and
// their PTEs get real swap LBAs, accelerating swap-in (Section V).
func (k *Kernel) MmapAnon(p *Process, sid, devID uint8, pages int,
	prot pagetable.Prot, fast bool) (pagetable.VAddr, error) {
	st := k.storage(sid, devID)
	if st == nil {
		return 0, fmt.Errorf("kernel: no storage at sid%d/dev%d", sid, devID)
	}
	k.anonCount++
	backing, err := st.fsys.Create(fmt.Sprintf("[anon-%d]", k.anonCount), pages, nil)
	if err != nil {
		return 0, err
	}
	base := p.nextMap
	span := (pagetable.VAddr(pages)*4096 + (1 << 30)) &^ ((1 << 30) - 1)
	p.nextMap += span
	vma := &VMA{Start: base, Pages: pages, File: backing, st: st,
		Fast: fast && k.cfg.Scheme != OSDP, Anon: true, Prot: prot, proc: p,
		swapped: make([]uint64, (pages+63)/64)}
	p.vmas = append(p.vmas, vma)
	k.stats.MmapPages += uint64(pages)
	if vma.Fast {
		anonBlk := pagetable.BlockAddr{SID: sid, DeviceID: devID, LBA: pagetable.AnonFirstTouch}
		for i := 0; i < pages; i++ {
			va := base + pagetable.VAddr(i)*4096
			_, _, pte := p.AS.Table.Ensure(va)
			pte.Set(pagetable.MakeLBA(anonBlk, prot))
		}
	}
	return base, nil
}

// vmaPTEAddrs collects the entry addresses of all installed PTEs in the
// VMA (the set the SMU barrier must drain before unmapping).
func (k *Kernel) vmaPTEAddrs(vma *VMA) []pagetable.EntryAddr {
	var addrs []pagetable.EntryAddr
	vma.proc.AS.Table.Range(vma.Start, vma.End(), func(_ pagetable.VAddr, pte pagetable.EntryRef) {
		addrs = append(addrs, pte.Addr())
	})
	return addrs
}

// afterBarrier runs fn once the SMU serving a fast-mmap VMA has drained
// every outstanding miss over the VMA's PTEs (the barrier that prevents
// the SMU/unmap race of Section IV-C), and at once for any other VMA.
func (k *Kernel) afterBarrier(vma *VMA, fn func()) {
	if vma.Fast {
		if sid := int(vma.st.key.sid); sid < len(k.smus) {
			k.smus[sid].Barrier(k.vmaPTEAddrs(vma), fn)
			return
		}
	}
	fn()
}

// unmapVMA tears a VMA down: it synchronizes pending OS metadata, unmaps
// every present page (unmapOne), clears every installed PTE and marks the
// VMA dead. It returns the PTEs synced and the pages unmapped; callers
// charge the time.
func (k *Kernel) unmapVMA(p *Process, vma *VMA) (synced, unmapped int) {
	synced = int(k.syncRange(p, vma.Start, vma.End()).PTEsMatched)
	p.AS.Table.Range(vma.Start, vma.End(), func(va pagetable.VAddr, pte pagetable.EntryRef) {
		if pte.Get().Present() {
			k.unmapOne(p, vma, va, pte)
			unmapped++
		}
		pte.Set(0)
	})
	vma.dead = true
	return synced, unmapped
}

// Munmap unmaps a VMA. For fast-mmap areas it first waits on the SMU
// barrier for all outstanding page misses over the region (preventing the
// SMU/unmap race of Section IV-C), synchronizes pending OS metadata, then
// tears down PTEs, reverse mappings and the TLB. done fires when the
// region is gone (dirty writeback proceeds in the background).
func (k *Kernel) Munmap(th *Thread, start pagetable.VAddr, done func()) {
	p := th.Proc
	vma := p.findVMA(start)
	if vma == nil || vma.Start != start {
		panic(fmt.Sprintf("kernel: munmap of unmapped region %#x", uint64(start)))
	}
	k.afterBarrier(vma, func() {
		synced, unmapped := k.unmapVMA(p, vma)
		k.stats.MunmapPages += uint64(vma.Pages)
		c := k.cfg.Costs
		k.kexec(th.HW, c.SyscallEntry+c.KptedPerSync*sim.Time(synced)+c.TLBShootdown*sim.Time(unmapped), done)
	})
}

// unmapOne removes one present mapping: reverse-map surgery, TLB
// shootdown, and — when this was the last mapping — page-cache removal.
// The frame then goes back to the allocator: now for a clean page, at the
// end of the write for a dirty one or one already under writeback.
func (k *Kernel) unmapOne(p *Process, vma *VMA, va pagetable.VAddr, pte pagetable.EntryRef) {
	idx := vma.pageIndex(va)
	pg := k.lookupPage(vma.File, idx)
	k.mmu.TLB().Invalidate(p.AS.ASID, va.PageNumber())
	if pg == nil {
		panic(fmt.Sprintf("kernel: present PTE without page cache entry at %#x", uint64(va)))
	}
	kept := pg.maps[:0]
	for _, m := range pg.maps {
		if !(m.as == p.AS && m.va == va.PageBase()) {
			kept = append(kept, m)
		}
	}
	pg.maps = kept
	if len(pg.maps) > 0 {
		return // still mapped elsewhere; page stays
	}
	k.uncache(pg)
	switch {
	case pg.wb:
		// An msync or flusher write is in flight: its completion frees
		// the frame of the now uncached page.
	case pte.Get().Dirty():
		k.submitWriteback(k.kswapdHW, pg, k.startWriteback(pg), nil)
	default:
		if err := k.mem.Free(pg.frame); err != nil {
			panic(err)
		}
	}
}

// Msync synchronizes a fast-mmap region: pending OS-metadata updates are
// applied first (the modified msync of Section IV-C), then dirty pages are
// written back; done fires when all writebacks complete. A written-back
// anonymous page is swap-backed from then on, as after a flush.
func (k *Kernel) Msync(th *Thread, start pagetable.VAddr, done func()) {
	p := th.Proc
	vma := p.findVMA(start)
	if vma == nil {
		panic(fmt.Sprintf("kernel: msync of unmapped region %#x", uint64(start)))
	}
	k.stats.Msyncs++
	c := k.cfg.Costs
	k.afterBarrier(vma, func() {
		synced := k.syncRange(p, vma.Start, vma.End()).PTEsMatched
		outstanding := 1 // the submission charge, until it ends
		pageDone := func() {
			if outstanding--; outstanding == 0 {
				done()
			}
		}
		cost := c.SyscallEntry + c.KptedPerSync*sim.Time(synced)
		p.AS.Table.Range(vma.Start, vma.End(), func(va pagetable.VAddr, pte pagetable.EntryRef) {
			e := pte.Get()
			if !e.Present() || !e.Dirty() {
				return
			}
			pg := k.lookupPage(vma.File, vma.pageIndex(va))
			if pg == nil || pg.wb {
				return
			}
			pte.Set(e.ClearFlags(pagetable.FlagDirty))
			if vma.Anon {
				vma.setSwapped(pg.idx)
			}
			cost += c.WritebackSubmit
			outstanding++
			k.submitWriteback(th.HW, pg, k.startWriteback(pg), pageDone)
		})
		k.kexec(th.HW, cost, pageDone)
	})
}

// WriteRaw appends one block to a file from a pinned kernel buffer — the
// WAL-append path of a storage engine (buffered write: done fires at
// submission; the device write proceeds asynchronously and contends with
// reads). The caller owns pacing; the kernel charges half an I/O
// submission of kernel time.
//
//hwdp:hotpath
func (k *Kernel) WriteRaw(th *Thread, sid, devID uint8, f *fs.File, page int, done func()) {
	st := k.storage(sid, devID)
	if st == nil {
		panic(fmt.Sprintf("kernel: WriteRaw to unknown storage sid%d/dev%d", sid, devID))
	}
	blk, err := st.fsys.Block(f, page)
	if err != nil {
		panic(err)
	}
	if k.walBuffer == mem.NoFrame {
		k.allocWALBuffer()
	}
	if th.walDone != nil {
		panic(fmt.Sprintf("kernel: thread %d started a WriteRaw with one in flight", th.ID))
	}
	th.walSt, th.walLBA, th.walDone = st, blk.LBA, done
	k.kexec(th.HW, k.cfg.Costs.IOSubmit/2, th.walExecFn)
}

// allocWALBuffer pins the frame every WriteRaw DMAs from.
//
//hwdp:coldpath runs once, on the first WriteRaw
func (k *Kernel) allocWALBuffer() {
	f, err := k.mem.Alloc()
	if err != nil {
		panic("kernel: no frame for WAL buffer")
	}
	k.walBuffer = f
}

// walExec submits the thread's in-flight WriteRaw once its submission
// cost has run (the pre-bound kexec callback), then completes it.
//
//hwdp:hotpath
func (th *Thread) walExec() {
	k := th.Proc.k
	st, lba, done := th.walSt, th.walLBA, th.walDone
	th.walSt, th.walDone = nil, nil
	k.submitIORetry(st, th.HW, nvme.OpWrite, lba, k.walBuffer, nil, k.walWrittenFn)
	done()
}

// walWritten is the completion of a WriteRaw device write.
func (k *Kernel) walWritten(status uint16) {
	if status != nvme.StatusSuccess {
		k.stats.WritebackErrors++
	}
}

// Fsync msyncs every live mapping of a file; done fires when all their
// writebacks complete. It issues no device flush.
func (k *Kernel) Fsync(th *Thread, f *fs.File, done func()) {
	var targets []*VMA
	for _, p := range k.procs {
		for _, v := range p.vmas {
			if !v.dead && v.File == f {
				targets = append(targets, v)
			}
		}
	}
	remaining := len(targets)
	if remaining == 0 {
		k.kexec(th.HW, k.cfg.Costs.SyscallEntry, done)
		return
	}
	for _, v := range targets {
		k.Msync(th, v.Start, func() {
			remaining--
			if remaining == 0 {
				done()
			}
		})
	}
}

// Fork creates a child process. Per Section V (page aliasing), all
// LBA-augmented PTEs of the parent revert to normal PTEs and the involved
// VMAs lose their fast flag in both parent and child; subsequent misses go
// through the OS in both processes. Resident pages are shared through the
// page cache (minor faults), not copied.
func (k *Kernel) Fork(parent *Process) *Process {
	child := k.NewProcess()
	k.stats.Forks++
	for _, v := range parent.vmas {
		if v.dead {
			continue
		}
		if v.Fast {
			k.syncRange(parent, v.Start, v.End())
			parent.AS.Table.Range(v.Start, v.End(), func(_ pagetable.VAddr, pte pagetable.EntryRef) {
				if e := pte.Get(); e.State() == pagetable.StateNotPresentLBA {
					pte.Set(pagetable.MakeSwap(0, e.Prot()))
				}
			})
			v.Fast = false
		}
		cv := &VMA{Start: v.Start, Pages: v.Pages, File: v.File, st: v.st,
			Fast: false, Prot: v.Prot, proc: child}
		child.vmas = append(child.vmas, cv)
		child.nextMap = parent.nextMap
	}
	return child
}

// patchRemappedPTEs is the file-system remap hook: when a marked file's
// block moves (CoW / log-structured update), every non-present
// LBA-augmented PTE mapping that page is rewritten with the new location.
func (k *Kernel) patchRemappedPTEs(st *storage, f *fs.File, page int, nb pagetable.BlockAddr) {
	for _, p := range k.procs {
		for _, v := range p.vmas {
			if v.dead || !v.Fast || v.File != f || page >= v.Pages {
				continue
			}
			va := v.Start + pagetable.VAddr(page)*4096
			_, _, pte, ok := p.AS.Table.Walk(va)
			if !ok {
				continue
			}
			if pte.Get().State() == pagetable.StateNotPresentLBA {
				pte.Set(pagetable.MakeLBA(nb, v.Prot))
				k.stats.RemapPatchedPTE++
			}
		}
	}
}
