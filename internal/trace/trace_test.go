package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hwdp/internal/sim"
)

// buildFixture populates a tracer with a fixed set of misses.
func buildFixture() *Tracer {
	t := New()
	for i := 0; i < 10; i++ {
		start := sim.Time(i) * 1000
		m := t.Begin(i%2, 0x1000*uint64(i+1), CauseHWMiss, start)
		m.AddSpan(LayerMMU, "tlb-miss+walk", start, start+100)
		m.AddSpan(LayerSMU, "req-regs+cam", start+100, start+110)
		m.AddSpan(LayerNVMe, "nvme-cmd-write", start+110, start+190)
		m.AddSpan(LayerSSD, "media read", start+200, start+700)
		m.AddSpan(LayerSMU, "pt-update", start+700, start+740)
		if i == 7 {
			m.SetCause(CauseBounced)
			m.AddSpan(LayerKernel, "exception-entry", start+740, start+800)
			m.SetCause(CauseOSMajor) // must not override the sticky bounce
		}
		m.Finish(start + 800)
	}
	victim := t.Begin(0, 0xdead000, CauseOSMajor, 99000)
	victim.AddSpan(LayerKernel, "exception-entry", 99000, 99100)
	t.NoteKill(victim, "SIGBUS: unrecoverable read", 99500)
	victim.Finish(99500)
	return t
}

func TestMissLifecycle(t *testing.T) {
	tr := buildFixture()
	if got := len(tr.Misses()); got != 11 {
		t.Fatalf("misses = %d, want 11", got)
	}
	m := tr.Misses()[0]
	if m.Total() != 800 {
		t.Errorf("total = %v, want 800", m.Total())
	}
	if m.ID != 1 {
		t.Errorf("first miss ID = %d, want 1", m.ID)
	}
	// Finish is idempotent.
	m.Finish(12345)
	if m.End != 800 || len(tr.Misses()) != 11 {
		t.Errorf("second Finish mutated the miss: end=%v misses=%d", m.End, len(tr.Misses()))
	}
	// Sticky bounce cause.
	if c := tr.Misses()[7].Cause; c != CauseBounced {
		t.Errorf("bounced miss cause = %v, want hw-bounced", c)
	}
	if tr.Kills() != 1 {
		t.Errorf("kills = %d, want 1", tr.Kills())
	}
}

func TestLayerAttribution(t *testing.T) {
	tr := buildFixture()
	// Every fixture miss charges exactly 100ps to the MMU.
	h := tr.LayerStats(LayerMMU)
	if h.Count() != 10 {
		t.Fatalf("MMU count = %d, want 10", h.Count())
	}
	if h.Percentile(50) != 100 || h.Percentile(99) != 100 {
		t.Errorf("MMU p50/p99 = %d/%d, want 100/100", h.Percentile(50), h.Percentile(99))
	}
	// SMU gets 10+40 = 50ps per miss across two spans.
	if got := tr.LayerStats(LayerSMU).Percentile(50); got != 50 {
		t.Errorf("SMU p50 = %d, want 50", got)
	}
	// Unattributed: total 800, spans cover 100+10+80+500+40 = 730 (+60
	// kernel for the bounced miss), so 70 (or 10) unattributed, plus the
	// victim's 400.
	if got := tr.otherH.Count(); got != 11 {
		t.Errorf("unattributed rows = %d, want 11", got)
	}
}

// TestFlightRecorderRing checks the flight recorder's window: every
// finished miss while fewer than flightDepth have retired, then the last
// flightDepth, oldest first; a postmortem's window stays as it was at the
// kill while later misses retire.
func TestFlightRecorderRing(t *testing.T) {
	tr := New()
	finish := func(n int) {
		for i := 0; i < n; i++ {
			at := sim.Time(len(tr.Misses()))
			tr.Begin(0, uint64(at), CauseHWMiss, at).Finish(at + 1)
		}
	}
	finish(3)
	if got := len(tr.recent()); got != 3 {
		t.Fatalf("window = %d misses after 3, want 3", got)
	}
	finish(flightDepth + 7)
	recent := tr.recent()
	if len(recent) != flightDepth {
		t.Fatalf("window = %d misses, want %d", len(recent), flightDepth)
	}
	// Oldest first: misses 11 .. 74 of 74 (IDs are 1-based).
	for i, m := range recent {
		if want := uint64(i + 11); m.ID != want {
			t.Errorf("window[%d].ID = %d, want %d", i, m.ID, want)
		}
	}
	if dump := tr.FlightDump(); !strings.Contains(dump, "last 64 of 74 traced misses") {
		t.Errorf("dump missing header:\n%s", dump[:min(len(dump), 200)])
	}

	victim := tr.Begin(0, 0xdead000, CauseOSMajor, 1000)
	tr.NoteKill(victim, "SIGBUS: unrecoverable read", 1001)
	finish(5)
	pm := tr.Postmortems()[0]
	if len(pm.Recent) != flightDepth || pm.Recent[0].ID != 11 || pm.Recent[flightDepth-1].ID != 74 {
		t.Errorf("postmortem window moved after later misses: %d misses, IDs %d..%d, want 64, 11..74",
			len(pm.Recent), pm.Recent[0].ID, pm.Recent[len(pm.Recent)-1].ID)
	}
	_ = append(pm.Recent, victim)
	if got := tr.Misses()[flightDepth+10].ID; got != 76 {
		t.Errorf("appending to a postmortem window overwrote the record: miss 75 has ID %d, want 76", got)
	}
}

func TestPostmortemSnapshot(t *testing.T) {
	tr := buildFixture()
	pms := tr.Postmortems()
	if len(pms) != 1 {
		t.Fatalf("postmortems = %d, want 1", len(pms))
	}
	pm := pms[0]
	if pm.At != 99500 || pm.Victim == nil || !pm.Victim.Killed {
		t.Errorf("bad postmortem: %+v", pm)
	}
	if len(pm.Recent) != 10 { // every miss finished before the kill
		t.Errorf("recent = %d, want 10", len(pm.Recent))
	}
	if !strings.Contains(pm.String(), "SIGBUS") {
		t.Errorf("postmortem dump missing reason:\n%s", pm.String())
	}
	if !strings.Contains(tr.FlightDump(), "[KILLED]") {
		t.Errorf("flight dump missing kill marker")
	}
}

func TestReportDeterministic(t *testing.T) {
	a, b := buildFixture().Report(), buildFixture().Report()
	if a != b {
		t.Fatalf("reports differ:\n%s\n---\n%s", a, b)
	}
	for _, want := range []string{"mmu", "smu", "nvme", "ssd", "kernel", "unattributed", "TOTAL (e2e)", "hw-bounced", "p50", "p99"} {
		if !strings.Contains(a, want) {
			t.Errorf("report missing %q:\n%s", want, a)
		}
	}
}

func TestChromeExportValidAndDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteChrome(&a, Process{Name: "HWDP", T: buildFixture()}); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, Process{Name: "HWDP", T: buildFixture()}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("chrome exports differ across identical fixtures")
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, a.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var metas, completes, instants int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			metas++
		case "X":
			completes++
		case "i":
			instants++
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	// 1 process_name + 2 thread_name metas; 11 misses + their spans; 1 kill.
	if metas != 3 || instants != 1 || completes < 11 {
		t.Errorf("metas=%d completes=%d instants=%d", metas, completes, instants)
	}
}

func TestChromeMultiProcess(t *testing.T) {
	var buf bytes.Buffer
	err := WriteChrome(&buf,
		Process{Name: "OSDP", T: buildFixture()},
		Process{Name: "HWDP", T: nil})
	if err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"OSDP"`) || !strings.Contains(s, `"HWDP"`) {
		t.Errorf("missing process names:\n%s", s)
	}
	if !json.Valid(buf.Bytes()) {
		t.Errorf("multi-process export is not valid JSON")
	}
}

func TestUsecFormatting(t *testing.T) {
	cases := []struct {
		ps   int64
		want string
	}{
		{0, "0.000000"},
		{1, "0.000001"},
		{1e6, "1.000000"},
		{1234567, "1.234567"},
		{10900 * 1e6, "10900.000000"},
	}
	for _, c := range cases {
		if got := usec(c.ps); got != c.want {
			t.Errorf("usec(%d) = %q, want %q", c.ps, got, c.want)
		}
	}
}

// TestDisabledTracerAddsNoAllocations pins the zero-alloc contract: with
// tracing off, every hook a layer may call is a nil check and nothing more.
func TestDisabledTracerAddsNoAllocations(t *testing.T) {
	var tr *Tracer
	var m *Miss
	allocs := testing.AllocsPerRun(1000, func() {
		m = tr.Begin(0, 0x1000, CauseHWMiss, 42)
		m.AddSpan(LayerSMU, "req-regs+cam", 42, 50)
		m.Mark(LayerSSD, "fault-transient", 60)
		m.SetCause(CauseBounced)
		m.Finish(100)
		tr.NoteKill(m, "x", 100)
		_ = tr.Misses()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %v times per op, want 0", allocs)
	}
	if m != nil {
		t.Fatal("nil tracer returned a non-nil miss")
	}
}

// BenchmarkDisabledTraceHooks is the perf guard the acceptance criteria
// ask for: run with -benchmem and expect 0 B/op, 0 allocs/op.
func BenchmarkDisabledTraceHooks(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := tr.Begin(0, 0x1000, CauseHWMiss, sim.Time(i))
		m.AddSpan(LayerMMU, "tlb-miss+walk", sim.Time(i), sim.Time(i)+100)
		m.SetCause(CauseOSMajor)
		m.Finish(sim.Time(i) + 800)
	}
}
