package kernel

import (
	"fmt"

	"hwdp/internal/mem"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
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
func (k *Kernel) accessNow(th *Thread, va pagetable.VAddr, write bool, done func(mmu.Result)) {
	th.beginStall(k)
	timedOut := false
	var tev *sim.Event
	if k.cfg.StallTimeout > 0 && k.cfg.Scheme == HWDP {
		// Needs the cancelable handle (canceled when the access completes
		// before the deadline) and shares timedOut with the completion
		// callback below; the timer fires only on I/Os slower than the
		// stall budget.
		//hwdp:ignore eventcapture cancelable stall watchdog sharing state with the completion callback; fires only past the stall budget
		tev = k.eng.After(k.cfg.StallTimeout, func() {
			if th.stallEnd == nil {
				return // the miss moved into a kernel path; not a pure stall
			}
			timedOut = true
			k.stats.StallTimeouts++
			th.endStall()
			th.HW.AccountContextSwitch()
			k.kexec(th.HW, k.cfg.Costs.Exception+k.cfg.Costs.CtxSwitchOut, func() {})
		})
	}
	k.mmu.Access(th.Proc.AS, va, write, th, func(r mmu.Result) {
		if tev != nil {
			tev.Cancel()
		}
		if timedOut {
			// The completion wakes the blocked thread like an OSDP fault.
			th.HW.AccountContextSwitch()
			k.kexec(th.HW, k.cfg.Costs.WakeSchedule, func() { done(r) })
			return
		}
		th.endStall()
		done(r)
	})
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
func (k *Kernel) LoadPage(th *Thread, va pagetable.VAddr, done func(r mmu.Result, c mem.Content, data []byte)) {
	mustBePageAligned(va)
	k.Access(th, va, false, func(r mmu.Result) {
		if r.Outcome == mmu.OutcomeBadAddr {
			done(r, mem.Content{}, nil)
			return
		}
		frame := r.PTE.PFN()
		if c, ok := k.mem.Descriptor(frame); ok {
			done(r, c, nil)
			return
		}
		data, err := k.mem.Data(frame)
		if err != nil {
			panic(fmt.Sprintf("kernel: mapped PTE names bad frame: %v", err))
		}
		done(r, mem.Content{}, data)
	})
}

// StorePage replaces the whole page at the page-aligned va with the
// descriptor c, moving no bytes. The access costs exactly what a Store of
// the page costs.
func (k *Kernel) StorePage(th *Thread, va pagetable.VAddr, c mem.Content, done func(mmu.Result)) {
	mustBePageAligned(va)
	k.Access(th, va, true, func(r mmu.Result) {
		if r.Outcome != mmu.OutcomeBadAddr {
			if err := k.mem.SetContent(r.PTE.PFN(), c); err != nil {
				panic(fmt.Sprintf("kernel: mapped PTE names bad frame: %v", err))
			}
		}
		done(r)
	})
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
			data, err := k.mem.Data(r.PTE.PFN())
			if err != nil {
				panic(fmt.Sprintf("kernel: mapped PTE names bad frame: %v", err))
			}
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
