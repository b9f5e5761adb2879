package metrics

import (
	"strings"
	"testing"
)

func TestPSISingleStall(t *testing.T) {
	p := NewPSI()
	p.BeginStall(StallAlloc, 100)
	p.EndStall(StallAlloc, 350, 250)
	if got := p.Stalls(StallAlloc); got != 1 {
		t.Fatalf("stalls = %d, want 1", got)
	}
	if got := p.TaskTime(StallAlloc); got != 250 {
		t.Fatalf("task time = %d, want 250", got)
	}
	if got := p.SomeTime(StallAlloc); got != 250 {
		t.Fatalf("some time = %d, want 250", got)
	}
	if p.Active(StallAlloc) != 0 {
		t.Fatal("staller leaked")
	}
}

// Two overlapping stallers: task-time sums both waits, some-time covers
// only the union of the wall-clock interval.
func TestPSIOverlappingStalls(t *testing.T) {
	p := NewPSI()
	p.BeginStall(StallPMSHRBacklog, 0)
	p.BeginStall(StallPMSHRBacklog, 100)
	p.EndStall(StallPMSHRBacklog, 300, 300)
	p.EndStall(StallPMSHRBacklog, 400, 300)
	if got := p.TaskTime(StallPMSHRBacklog); got != 600 {
		t.Fatalf("task time = %d, want 600", got)
	}
	if got := p.SomeTime(StallPMSHRBacklog); got != 400 {
		t.Fatalf("some time = %d, want 400 (union of [0,400])", got)
	}
}

// An open stall is counted up to the latest observed timestamp.
func TestPSIOpenStallCounted(t *testing.T) {
	p := NewPSI()
	p.BeginStall(StallAlloc, 50)
	p.BeginStall(StallWritebackThrottle, 500) // advances lastNow
	if got := p.SomeTime(StallAlloc); got != 450 {
		t.Fatalf("open some time = %d, want 450", got)
	}
	if p.Active(StallAlloc) != 1 {
		t.Fatal("open stall not active")
	}
}

func TestPSINilSafe(t *testing.T) {
	var p *PSI
	p.BeginStall(StallAlloc, 0) // must not panic
	p.EndStall(StallAlloc, 10, 10)
}

func TestPSIStringListsAllKinds(t *testing.T) {
	p := NewPSI()
	s := p.String()
	for k := StallKind(0); k < NumStallKinds; k++ {
		if !strings.Contains(s, k.String()) {
			t.Fatalf("report missing kind %q:\n%s", k, s)
		}
	}
}

func TestRecoveryBacklogWaitSummary(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}
	var r Recovery
	r.SetBacklogWait(h)
	if r.BacklogWaits != 100 {
		t.Fatalf("waits = %d, want 100", r.BacklogWaits)
	}
	if r.BacklogWaitMaxPS != 100000 {
		t.Fatalf("max = %d, want 100000", r.BacklogWaitMaxPS)
	}
	if r.BacklogWaitP50PS <= 0 || r.BacklogWaitP99PS < r.BacklogWaitP50PS {
		t.Fatalf("percentiles out of order: p50 %d p99 %d",
			r.BacklogWaitP50PS, r.BacklogWaitP99PS)
	}
	if !strings.Contains(r.String(), "backlog wait") {
		t.Fatal("String() missing backlog wait row")
	}
	// Empty histogram leaves the summary zero.
	var r2 Recovery
	r2.SetBacklogWait(NewHistogram())
	if r2.BacklogWaits != 0 {
		t.Fatal("empty histogram populated summary")
	}
}
