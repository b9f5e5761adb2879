package hwdp

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"hwdp/internal/fs"
	"hwdp/internal/trace"
)

// tracedRun executes a fixed FIO workload with tracing on and returns the
// Chrome trace bytes plus the rendered breakdown report.
func tracedRun(t *testing.T, cfg Config) ([]byte, string) {
	t.Helper()
	cfg.Trace = true
	sys := New(cfg)
	if _, err := sys.RunFIO(2, 250, 4096); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sys.BreakdownReport()
}

// TestTraceDeterministic pins the central observability contract: same
// seed and config produce byte-identical trace JSON and breakdown report
// across independent runs, for every scheme.
func TestTraceDeterministic(t *testing.T) {
	for _, s := range []Scheme{OSDP, SWOnly, HWDP} {
		j1, r1 := tracedRun(t, det(s))
		j2, r2 := tracedRun(t, det(s))
		if !bytes.Equal(j1, j2) {
			t.Fatalf("%v: trace JSON diverged across identical runs", s)
		}
		if r1 != r2 {
			t.Fatalf("%v: breakdown report diverged:\n%s\n---\n%s", s, r1, r2)
		}
	}
}

// TestTraceDeterministicUnderFaultStorm repeats the determinism check
// under the chaos mix from the fault-injection suite: injected device
// errors, retries, timeouts and OS fallbacks must all trace identically
// given the same seed.
func TestTraceDeterministicUnderFaultStorm(t *testing.T) {
	storm := func() Config {
		cfg := det(HWDP)
		cfg.Faults = []FaultRule{
			{Kind: FaultTransient, Prob: 0.1},
			{Kind: FaultDrop, Prob: 0.01, SMUPathOnly: true},
			{Kind: FaultSpike, Prob: 0.05},
		}
		cfg.SMUCmdTimeoutUS = 500
		return cfg
	}
	j1, r1 := tracedRun(t, storm())
	j2, r2 := tracedRun(t, storm())
	if !bytes.Equal(j1, j2) {
		t.Fatal("trace JSON diverged under fault storm")
	}
	if r1 != r2 {
		t.Fatalf("breakdown report diverged under fault storm:\n%s\n---\n%s", r1, r2)
	}
}

// TestTraceChromeJSONWellFormed checks the export is real JSON in Chrome
// trace_event shape — loadable by Perfetto — and that the report names
// every layer.
func TestTraceChromeJSONWellFormed(t *testing.T) {
	raw, report := tracedRun(t, det(HWDP))
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var sawMiss, sawMeta bool
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			if strings.HasPrefix(e.Name, "miss ") {
				sawMiss = true
			}
		case "M":
			sawMeta = true
		}
	}
	if !sawMiss || !sawMeta {
		t.Fatalf("missing event kinds: miss=%v meta=%v", sawMiss, sawMeta)
	}
	for _, layer := range []string{"mmu", "smu", "nvme", "ssd", "kernel", "TOTAL"} {
		if !strings.Contains(report, layer) {
			t.Fatalf("report missing layer %q:\n%s", layer, report)
		}
	}
}

// TestTraceDisabledFacade checks the facade degrades gracefully without
// Config.Trace: WriteTrace errors, the report and dump carry a notice,
// and the tracer accessor is nil.
func TestTraceDisabledFacade(t *testing.T) {
	sys := New(det(HWDP))
	if _, err := sys.RunFIO(1, 50, 1024); err != nil {
		t.Fatal(err)
	}
	if sys.Tracer() != nil {
		t.Fatal("tracer non-nil with tracing disabled")
	}
	if err := sys.WriteTrace(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTrace succeeded with tracing disabled")
	}
	if !strings.Contains(sys.BreakdownReport(), "disabled") {
		t.Fatal("report missing disabled notice")
	}
	if !strings.Contains(sys.FlightDump(), "disabled") {
		t.Fatal("flight dump missing disabled notice")
	}
}

// TestTracedOSReadSpans checks the kernel spans of a traced cold OSDP
// fault's read completion, which the CPU runs as one segment with one end
// event: irq+complete+wake ends where metadata+pte-install starts, and on
// an idle core each lasts exactly its cost.
func TestTracedOSReadSpans(t *testing.T) {
	cfg := det(OSDP)
	cfg.Trace = true
	raw := New(cfg).Raw()
	va, _, err := raw.MapFile("probe", 16, fs.SeededInit(1), raw.FastFlags())
	if err != nil {
		t.Fatal(err)
	}
	raw.MeasureSingleFault(raw.WorkloadThread(0), va)
	ms := raw.Trace.Misses()
	if len(ms) != 1 {
		t.Fatalf("%d misses traced, want the one cold fault", len(ms))
	}
	var wake, install *trace.Span
	for i, s := range ms[0].Spans {
		switch s.Name {
		case "irq+complete+wake":
			wake = &ms[0].Spans[i]
		case "metadata+pte-install":
			install = &ms[0].Spans[i]
			if wake == nil {
				t.Fatal("metadata+pte-install recorded before irq+complete+wake")
			}
		}
	}
	if wake == nil || install == nil {
		t.Fatalf("spans %+v lack the read completion's two kernel spans", ms[0].Spans)
	}
	c := raw.K.Config().Costs
	if wake.End != install.Start || install.End != ms[0].End ||
		wake.Dur() != c.InterruptDelivery+c.IOCompletion+c.WakeSchedule ||
		install.Dur() != c.MetadataUpdate+c.PTEInstallReturn {
		t.Fatalf("read completion spans %+v then %+v, miss ends %v", *wake, *install, ms[0].End)
	}
}
