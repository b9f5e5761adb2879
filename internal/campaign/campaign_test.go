package campaign

import (
	"encoding/json"
	"strings"
	"testing"

	"hwdp/internal/fault"
	"hwdp/internal/kernel"
	"hwdp/internal/sim"
)

// quickScenario is a small oversubscribed HWDP run under a fault storm
// with every pressure mechanism armed — the closest thing to a worst case
// that still finishes fast.
func quickScenario() Scenario {
	return Scenario{
		Name:           "test/all-on",
		Kind:           "test",
		Scheme:         kernel.HWDP,
		MemoryMB:       4,
		OversubRatio:   2.0,
		Procs:          2,
		Threads:        2,
		OpsPerThread:   1500,
		WriteFrac:      0.6,
		DirtyRatioFrac: 0.15,
		OOMStallLimit:  300 * sim.Microsecond,
		Faults: []fault.Rule{
			{Kind: fault.Transient, Prob: 0.03},
			{Kind: fault.Spike, Prob: 0.02, SpikeFactor: 10},
		},
		Seed: 7,
	}
}

// A campaign scenario must complete with a clean audit: the watchdog ran,
// recorded nothing, and every allocated frame is accounted for.
func TestScenarioCleanAudit(t *testing.T) {
	r := Run(quickScenario())
	if r.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if r.WatchdogRuns == 0 {
		t.Fatal("watchdog never ticked")
	}
	if len(r.WatchdogViolations) != 0 {
		t.Fatalf("watchdog violations: %v", r.WatchdogViolations)
	}
	if r.LeakedFrames != 0 {
		t.Fatalf("%d frames leaked", r.LeakedFrames)
	}
}

// The pressure machinery must actually engage under the storm — a clean
// audit of mechanisms that never fired proves nothing.
func TestScenarioExercisesPressure(t *testing.T) {
	r := Run(quickScenario())
	if r.Evictions == 0 {
		t.Fatal("no evictions despite 2x oversubscription")
	}
	if r.FlusherRuns == 0 && r.ThrottledWrites == 0 {
		t.Fatal("dirty-ratio machinery never engaged")
	}
	total := uint64(0)
	for _, row := range r.PSI {
		total += row.Stalls
	}
	if total == 0 {
		t.Fatal("no pressure stalls recorded")
	}
}

// Same scenario, same seed, same report: campaigns must be deterministic
// so the manifest is a regression artifact, not noise.
func TestScenarioDeterministic(t *testing.T) {
	a, err := json.Marshal(Run(quickScenario()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(Run(quickScenario()))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("two runs of one scenario differ:\n%s\n%s", a, b)
	}
}

// An OSDP scenario must run the same traffic through the software path
// (no SMU involvement) and still audit clean.
func TestScenarioOSDPClean(t *testing.T) {
	sc := quickScenario()
	sc.Scheme = kernel.OSDP
	sc.DirtyRatioFrac = 0 // throttle scenario is HWDP's; keep OSDP minimal
	r := Run(sc)
	if r.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if r.FallbackRate != 0 {
		t.Fatalf("OSDP has no hardware path to fall back from (rate %f)", r.FallbackRate)
	}
	if len(r.WatchdogViolations) != 0 || r.LeakedFrames != 0 {
		t.Fatalf("violations %v leaked %d", r.WatchdogViolations, r.LeakedFrames)
	}
}

// The comparison figure renders the ladder scenarios in result order and
// leaves the mechanism scenarios out.
func TestManifestAndComparison(t *testing.T) {
	results := []Result{
		{Name: "ladder/hwdp/r1.5", Kind: "ladder", Scheme: "HWDP", OversubRatio: 1.5,
			P999US: 120.5, FallbackRate: 0.01},
		{Name: "ladder/osdp/r1.5", Kind: "ladder", Scheme: "OSDP", OversubRatio: 1.5,
			P999US: 240.1},
		{Name: "oom/hwdp", Kind: "oom", Scheme: "HWDP", OversubRatio: 2.5,
			LeakedFrames: 3},
	}
	fig := RenderComparison(results)
	for _, want := range []string{"HWDP p99.9", "OSDP p99.9", "120.50", "240.10", "1.5"} {
		if !strings.Contains(fig, want) {
			t.Fatalf("comparison figure missing %q:\n%s", want, fig)
		}
	}
	if strings.Index(fig, "HWDP p99.9") > strings.Index(fig, "OSDP p99.9") {
		t.Fatalf("scheme columns out of result order:\n%s", fig)
	}
	if strings.Contains(fig, "oom/hwdp") || strings.Contains(fig, "2.5") {
		t.Fatal("non-ladder scenario leaked into the comparison figure")
	}
}

// DefaultScenarios covers both schemes, the full ladder and both
// mechanism scenarios, with unique names and positive workloads.
func TestDefaultScenarios(t *testing.T) {
	scs := DefaultScenarios(true)
	names := map[string]bool{}
	kinds := map[string]int{}
	for _, sc := range scs {
		if names[sc.Name] {
			t.Fatalf("duplicate scenario name %s", sc.Name)
		}
		names[sc.Name] = true
		kinds[sc.Kind]++
		if sc.Threads <= 0 || sc.OpsPerThread <= 0 || sc.MemoryMB <= 0 {
			t.Fatalf("degenerate scenario %+v", sc)
		}
	}
	if kinds["ladder"] != 6 || kinds["throttle"] != 1 || kinds["oom"] != 1 {
		t.Fatalf("scenario mix %v", kinds)
	}
}
