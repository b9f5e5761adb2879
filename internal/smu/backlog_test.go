package smu

import (
	"testing"

	"hwdp/internal/metrics"
	"hwdp/internal/pagetable"
)

// Flooding the PMSHR with more misses than it has slots must backlog the
// overflow, and every backlogged request's wait duration must land in the
// BacklogWait histogram (the Backlogged counter alone used to drop the
// durations).
func TestBacklogWaitHistogramRecorded(t *testing.T) {
	const extra = 8
	r := newRig(t, PMSHREntries+extra+8)
	psi := metrics.NewPSI()
	r.smu.SetPSI(psi)
	done := 0
	for i := 0; i < PMSHREntries+extra; i++ {
		req := r.request(pagetable.VAddr(0x1000+i*0x1000), uint64(100+i))
		r.smu.HandleMissArg(req, func(_ any, res Result, _ pagetable.Entry) {
			if res != ResultOK {
				t.Fatalf("miss %v", res)
			}
			done++
		}, nil)
	}
	r.eng.Run()
	if done != PMSHREntries+extra {
		t.Fatalf("completed %d of %d", done, PMSHREntries+extra)
	}
	st := r.smu.Stats()
	if st.Backlogged != extra {
		t.Fatalf("backlogged = %d, want %d", st.Backlogged, extra)
	}
	h := r.smu.BacklogWait()
	if h.Count() != extra {
		t.Fatalf("histogram samples = %d, want %d (one per backlogged request)",
			h.Count(), extra)
	}
	if h.Min() <= 0 {
		t.Fatalf("min wait = %d, want > 0 (slots were all busy)", h.Min())
	}
	if h.Max() < h.Min() || h.Percentile(50) < h.Min() || h.Percentile(50) > h.Max() {
		t.Fatalf("wait distribution inconsistent: min %d p50 %d max %d",
			h.Min(), h.Percentile(50), h.Max())
	}
	// PSI observed the same waits: one stall per backlogged request, all
	// resolved, task-time equal to the histogram's sum.
	if got := psi.Stalls(metrics.StallPMSHRBacklog); got != extra {
		t.Fatalf("psi stalls = %d, want %d", got, extra)
	}
	if psi.Active(metrics.StallPMSHRBacklog) != 0 {
		t.Fatal("psi staller leaked")
	}
	if got := psi.TaskTime(metrics.StallPMSHRBacklog); got != h.Sum() {
		t.Fatalf("psi task time %d != histogram sum %d", got, h.Sum())
	}
	if r.smu.BacklogLen() != 0 {
		t.Fatalf("backlog not drained: %d", r.smu.BacklogLen())
	}
	checkConservation(t, r.smu)
}

// With fewer misses than PMSHR slots, no waits are recorded.
func TestBacklogWaitHistogramEmptyWithoutOverflow(t *testing.T) {
	r := newRig(t, 16)
	for i := 0; i < 4; i++ {
		req := r.request(pagetable.VAddr(0x1000+i*0x1000), uint64(10+i))
		r.smu.HandleMissArg(req, func(any, Result, pagetable.Entry) {}, nil)
	}
	r.eng.Run()
	if n := r.smu.BacklogWait().Count(); n != 0 {
		t.Fatalf("unexpected backlog waits: %d", n)
	}
	if r.smu.Stats().Backlogged != 0 {
		t.Fatal("unexpected backlog")
	}
}
