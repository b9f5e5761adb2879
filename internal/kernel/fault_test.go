package kernel

// Tests for the kernel fault paths that only show when two threads fault
// on one page at once: the OSDP page lock, the SW-only emulated PMSHR
// (including an unrecoverable read with a coalesced waiter), and the
// anonymous zero-fill's lock.

import (
	"bytes"
	"testing"

	"hwdp/internal/fault"
	"hwdp/internal/fs"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/ssd"
	"hwdp/internal/trace"
)

// loadBoth starts one 64-byte load of va on each of two threads at the
// same instant and runs the machine until both end or a virtual second
// passes. It returns the two buffers and whether each load ended.
func loadBoth(r *rig, th2 *Thread, va pagetable.VAddr) (bufs [2][]byte, ended [2]bool) {
	for i, th := range []*Thread{r.th, th2} {
		i := i
		bufs[i] = make([]byte, 64)
		r.k.Load(th, va, bufs[i], func(mmu.Result) { ended[i] = true })
	}
	deadline := r.eng.Now() + sim.Second
	for !(ended[0] && ended[1]) && r.eng.Now() < deadline && r.eng.Step() {
	}
	return bufs, ended
}

// hasSpan reports whether any traced miss recorded the kernel span name.
func hasSpan(tr *trace.Tracer, name string) bool {
	for _, m := range tr.Misses() {
		for _, sp := range m.Spans {
			if sp.Layer == trace.LayerKernel && sp.Name == name {
				return true
			}
		}
	}
	return false
}

func TestOSDPPageLockWait(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(OSDP))
	tr := trace.New()
	r.mmu.Tracer = tr
	va, _ := r.mmapFile(t, "f", 8, MmapFlags{})
	th2 := r.k.NewThread(r.p, 2)
	reads := r.dev.Stats().Reads
	bufs, ended := loadBoth(r, th2, va)
	if !ended[0] || !ended[1] {
		t.Fatalf("loads ended = %v", ended)
	}
	if n := r.dev.Stats().Reads - reads; n != 1 {
		t.Fatalf("device reads = %d, want 1", n)
	}
	// The lock holder reads the page; the waiter maps it off the page
	// cache and counts as a minor fault, as an anonymous waiter does.
	if st := r.k.Stats(); st.MajorFaults != 1 || st.MinorFaults != 1 {
		t.Fatalf("major/minor faults = %d/%d, want 1/1 (stats %+v)", st.MajorFaults, st.MinorFaults, st)
	}
	if !hasSpan(tr, "page-lock-wait") {
		t.Fatal("no traced miss waited on the page lock")
	}
	page := make([]byte, fs.PageBytes)
	fs.SeededInit(77)(0, page)
	for i, b := range bufs {
		if !bytes.Equal(b, page[:64]) {
			t.Fatalf("thread %d read wrong bytes", i)
		}
	}
}

func TestSWDPPMSHRCoalesces(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(SWDP))
	tr := trace.New()
	r.mmu.Tracer = tr
	va, _ := r.mmapFile(t, "f", 8, MmapFlags{Fast: true})
	th2 := r.k.NewThread(r.p, 2)
	reads := r.dev.Stats().Reads
	bufs, ended := loadBoth(r, th2, va)
	if !ended[0] || !ended[1] {
		t.Fatalf("loads ended = %v", ended)
	}
	if n := r.dev.Stats().Reads - reads; n != 1 {
		t.Fatalf("device reads = %d, want 1", n)
	}
	if st := r.k.Stats(); st.SWFaults != 2 || st.MajorFaults != 0 {
		t.Fatalf("stats = %+v, want 2 SW faults and no major fault", st)
	}
	if !hasSpan(tr, "sw-pmshr-wait") {
		t.Fatal("no traced miss waited on the emulated PMSHR")
	}
	page := make([]byte, fs.PageBytes)
	fs.SeededInit(77)(0, page)
	for i, b := range bufs {
		if !bytes.Equal(b, page[:64]) {
			t.Fatalf("thread %d read wrong bytes", i)
		}
	}
}

func TestSWDPUnrecoverableReadFailsWaiter(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(SWDP))
	r.dev.SetInjector(fault.NewInjector(sim.NewRand(1), fault.Rule{Kind: fault.UECC, Prob: 1}))
	va, _ := r.mmapFile(t, "f", 8, MmapFlags{Fast: true})
	th2 := r.k.NewThread(r.p, 2)
	free := r.mem.FreeFrames()
	_, ended := loadBoth(r, th2, va)
	if !ended[0] || !ended[1] {
		t.Fatalf("loads ended = %v: a fault hung", ended)
	}
	// The waiter's re-walk finds the PTE poisoned and faults again: its
	// own read of the bad block fails and kills it too.
	if st := r.k.Stats(); st.SIGBUSKills != 2 || st.SWFaults != 2 || st.MajorFaults != 1 {
		t.Fatalf("stats = %+v, want 2 SIGBUS kills, 2 SW faults and 1 major fault", st)
	}
	if got := r.mem.FreeFrames(); got != free {
		t.Fatalf("free frames = %d, want %d: the failed read's frame leaked", got, free)
	}
	if e, _ := r.p.AS.Table.Lookup(va); e.State() != pagetable.StateNotPresentOS {
		t.Fatalf("pte state = %v, want poisoned to the OS path", e.State())
	}
}

func TestOSDPAnonFirstTouchConcurrent(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(OSDP))
	tr := trace.New()
	r.mmu.Tracer = tr
	va := r.mmapAnon(t, 8, false)
	th2 := r.k.NewThread(r.p, 2)
	allocs, reads := r.mem.Allocs(), r.dev.Stats().Reads
	bufs, ended := loadBoth(r, th2, va)
	if !ended[0] || !ended[1] {
		t.Fatalf("loads ended = %v", ended)
	}
	if n := r.mem.Allocs() - allocs; n != 1 {
		t.Fatalf("frames allocated = %d, want 1", n)
	}
	if n := r.dev.Stats().Reads - reads; n != 0 {
		t.Fatalf("device reads = %d, want 0", n)
	}
	// Both threads take a minor fault; the second waits on the first's
	// page lock.
	if st := r.k.Stats(); st.MinorFaults != 2 || st.MajorFaults != 0 {
		t.Fatalf("stats = %+v, want 2 minor faults and no major fault", st)
	}
	if !hasSpan(tr, "page-lock-wait") {
		t.Fatal("no traced miss waited on the page lock")
	}
	for i, b := range bufs {
		if !bytes.Equal(b, make([]byte, 64)) {
			t.Fatalf("thread %d read nonzero bytes", i)
		}
	}
}

// A bounced hardware miss refills the free page queues at the end of its
// context switch out. With a read faster than that switch, the completion
// arrives while the switch is still on the core; the fault's record must
// stay live until the refill phase has run.
func TestBounceRefillOutlivesFastRead(t *testing.T) {
	prof := ssd.ZSSD
	prof.JitterFrac = 0
	prof.Read4K = 10 * sim.Nanosecond
	r := newRigProf(t, 64<<20, 4, prof, withScheme(HWDP), noKpoold())
	tr := trace.New()
	r.mmu.Tracer = tr
	va, _ := r.mmapFile(t, "f", 8, MmapFlags{Fast: true})
	// Drain the 3-entry free page queue; the fourth miss bounces.
	for i := 0; i < 3; i++ {
		if out, _ := r.access(t, r.th, va+pagetable.VAddr(i)*4096, false); out != mmu.OutcomeHW {
			t.Fatalf("miss %d: %v", i, out)
		}
	}
	if out, _ := r.access(t, r.th, va+3*4096, false); out != mmu.OutcomeOSFault {
		t.Fatalf("bounced miss outcome = %v", out)
	}
	if st := r.k.Stats(); st.HWBounceFaults != 1 || st.FaultRefills != 1 {
		t.Fatalf("stats = %+v, want one bounce and one refill", st)
	}
	// The read's media time ended inside the context switch out.
	var ms *trace.Miss
	for _, m := range tr.Misses() {
		if m.VA == uint64(va+3*4096) {
			ms = m
		}
	}
	var switchEnd, mediaEnd sim.Time
	for _, sp := range ms.Spans {
		switch {
		case sp.Layer == trace.LayerKernel && sp.Name == "ctx-switch-out":
			switchEnd = sp.End
		case sp.Layer == trace.LayerSSD && sp.Name == "media read":
			mediaEnd = sp.End
		}
	}
	if switchEnd == 0 || mediaEnd == 0 || mediaEnd >= switchEnd {
		t.Fatalf("media read ends at %v, ctx-switch-out at %v: want the read inside the switch", mediaEnd, switchEnd)
	}
	// The refill ran: hardware handling works again.
	if out, _ := r.access(t, r.th, va+4*4096, false); out != mmu.OutcomeHW {
		t.Fatalf("post-refill outcome = %v", out)
	}
}
