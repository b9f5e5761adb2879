package kernel

import (
	"fmt"

	"hwdp/internal/mem"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
)

// Access performs one user memory access (timing only): the pipeline
// stalls for however long translation plus miss handling takes. done
// receives the MMU's outcome.
//
// With Config.StallTimeout set (HWDP), a stall that outlives the timeout
// raises a timeout exception and context-switches the thread away, freeing
// the core while a long-latency I/O completes (Section V).
//
// With Config.DirtyRatioFrac set, a write arriving while the dirty-page
// count sits at the hard limit is throttled (balance_dirty_pages) before
// the access proceeds.
func (k *Kernel) Access(th *Thread, va pagetable.VAddr, write bool, done func(mmu.Result)) {
	if write && k.dirtyHardLimit > 0 && k.dirtyPages >= k.dirtyHardLimit {
		k.throttle(th, va, done)
		return
	}
	k.accessNow(th, va, write, done)
}

// accessNow is Access past the throttle gate.
//
//hwdp:hotpath
func (k *Kernel) accessNow(th *Thread, va pagetable.VAddr, write bool, done func(mmu.Result)) {
	if th.accDone != nil {
		panic(fmt.Sprintf("kernel: thread %d started an access with one in flight", th.ID))
	}
	th.beginStall(k)
	th.accDone = done
	if k.cfg.StallTimeout > 0 && k.cfg.Scheme == HWDP {
		// Pooled handle: accessed drops it right after Cancel, and
		// stallTimeout drops it as its first action.
		th.accTimer = k.eng.AtArgPooled(k.eng.Now()+k.cfg.StallTimeout, k.stallTimeoutFn, th)
	}
	k.mmu.Access(th.Proc.AS, va, write, th, th.accessFn)
}

// accessed completes the thread's in-flight access (the pre-bound MMU
// callback).
//
//hwdp:hotpath
func (th *Thread) accessed(r mmu.Result) {
	k := th.Proc.k
	th.accTimer.Cancel()
	th.accTimer = nil
	done := th.accDone
	th.accDone = nil
	if th.timedOut {
		th.timedOut = false
		k.wakeTimedOut(th, r, done)
		return
	}
	th.endStall(k)
	done(r)
}

// stallTimeout is the stall watchdog (the pre-bound AtArgPooled callback):
// the access outlived Config.StallTimeout, so the timeout exception fires
// and the OS context-switches the thread away until the miss completes.
func (k *Kernel) stallTimeout(a any) {
	th := a.(*Thread)
	th.accTimer = nil
	if !th.stalled {
		return // the miss moved into a kernel path; not a pure stall
	}
	th.timedOut = true
	k.stats.StallTimeouts++
	th.endStall(k)
	th.HW.AccountContextSwitch()
	k.kexec(th.HW, k.cfg.Costs.Exception+k.cfg.Costs.CtxSwitchOut, nop)
}

// wakeTimedOut completes an access whose stall timed out: the completion
// wakes the blocked thread like an OSDP fault.
//
//hwdp:coldpath stall timeouts fire only on I/Os slower than the configured stall budget
func (k *Kernel) wakeTimedOut(th *Thread, r mmu.Result, done func(mmu.Result)) {
	th.HW.AccountContextSwitch()
	k.kexec(th.HW, k.cfg.Costs.WakeSchedule, func() { done(r) })
}

// Load reads n bytes of user memory at va into buf (which must have length
// >= n). It performs the access for timing and then copies the bytes from
// the backing frame(s), crossing page boundaries as needed.
func (k *Kernel) Load(th *Thread, va pagetable.VAddr, buf []byte, done func(mmu.Result)) {
	k.copyVM(th, va, buf, false, done)
}

// Store writes buf to user memory at va.
func (k *Kernel) Store(th *Thread, va pagetable.VAddr, buf []byte, done func(mmu.Result)) {
	k.copyVM(th, va, buf, true, done)
}

// LoadPage reads the whole page at the page-aligned va without generating
// its bytes: done receives the MMU's outcome and the frame's contents,
// either as a descriptor (data nil) or, for a frame whose bytes already
// exist, as data, which stays valid only until done returns. The access
// costs exactly what a Load of the page costs.
//
//hwdp:hotpath
func (k *Kernel) LoadPage(th *Thread, va pagetable.VAddr, done func(r mmu.Result, c mem.Content, data []byte)) {
	mustBePageAligned(va)
	if th.pageLoadDone != nil {
		panic(fmt.Sprintf("kernel: thread %d started a LoadPage with one in flight", th.ID))
	}
	th.pageLoadDone = done
	k.Access(th, va, false, th.loadedFn)
}

// pageLoaded completes the thread's in-flight LoadPage (the pre-bound
// Access callback).
//
//hwdp:hotpath
func (th *Thread) pageLoaded(r mmu.Result) {
	done := th.pageLoadDone
	th.pageLoadDone = nil
	if r.Outcome == mmu.OutcomeBadAddr {
		done(r, mem.Content{}, nil)
		return
	}
	k := th.Proc.k
	frame := r.PTE.PFN()
	if c, ok := k.mem.Descriptor(frame); ok {
		done(r, c, nil)
		return
	}
	done(r, mem.Content{}, k.mappedData(frame))
}

// mappedData returns the bytes of a mapped frame, generating them on
// first access.
//
//hwdp:coldpath byte copies (Load, Store) and whole-page loads of frames something materialized
func (k *Kernel) mappedData(frame mem.FrameID) []byte {
	data, err := k.mem.Data(frame)
	if err != nil {
		panic(fmt.Sprintf("kernel: mapped PTE names bad frame: %v", err))
	}
	return data
}

// StorePage replaces the whole page at the page-aligned va with the
// descriptor c, moving no bytes. The access costs exactly what a Store of
// the page costs.
//
//hwdp:hotpath
func (k *Kernel) StorePage(th *Thread, va pagetable.VAddr, c mem.Content, done func(mmu.Result)) {
	mustBePageAligned(va)
	if th.pageStoreDone != nil {
		panic(fmt.Sprintf("kernel: thread %d started a StorePage with one in flight", th.ID))
	}
	th.pageStore, th.pageStoreDone = c, done
	k.Access(th, va, true, th.storedFn)
}

// pageStored completes the thread's in-flight StorePage (the pre-bound
// Access callback).
//
//hwdp:hotpath
func (th *Thread) pageStored(r mmu.Result) {
	c, done := th.pageStore, th.pageStoreDone
	th.pageStore, th.pageStoreDone = mem.Content{}, nil
	if r.Outcome != mmu.OutcomeBadAddr {
		if err := th.Proc.k.mem.SetContent(r.PTE.PFN(), c); err != nil {
			panic(fmt.Sprintf("kernel: mapped PTE names bad frame: %v", err))
		}
	}
	done(r)
}

func mustBePageAligned(va pagetable.VAddr) {
	if va != va.PageBase() {
		panic(fmt.Sprintf("kernel: whole-page access at unaligned address %#x", uint64(va)))
	}
}

func (k *Kernel) copyVM(th *Thread, va pagetable.VAddr, buf []byte, write bool, done func(mmu.Result)) {
	if len(buf) == 0 {
		panic("kernel: zero-length VM copy")
	}
	var first mmu.Result
	gotFirst := false
	var step func(va pagetable.VAddr, buf []byte)
	step = func(va pagetable.VAddr, buf []byte) {
		k.Access(th, va, write, func(r mmu.Result) {
			if !gotFirst {
				first = r
				gotFirst = true
			}
			if r.Outcome == mmu.OutcomeBadAddr {
				done(r)
				return
			}
			off := int(va - va.PageBase())
			n := mem.PageSize - off
			if n > len(buf) {
				n = len(buf)
			}
			data := k.mappedData(r.PTE.PFN())
			if write {
				copy(data[off:off+n], buf[:n])
			} else {
				copy(buf[:n], data[off:off+n])
			}
			if n == len(buf) {
				done(first)
				return
			}
			step(va.PageBase()+mem.PageSize, buf[n:])
		})
	}
	step(va, buf)
}
