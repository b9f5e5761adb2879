package figures

import "testing"

// ssdTestParams shrinks the run so the regression test stays fast while
// the preconditioned drive still garbage-collects during measurement.
func ssdTestParams() Params {
	p := Quick()
	p.OpsPerThread = 1500
	p.WarmupOps = 600
	return p
}

// TestSSDSteadyStateDivergence is the issue's regression pin: the
// preconditioned modeled drive must show write amplification above 1 and
// a GC-driven p99.9 tail the profile backend cannot produce. Only the
// divergence DIRECTION is pinned — exact values may drift with model
// tuning, but a change that silently regresses the scenario to
// fresh-drive behavior (WA → 1, tail collapse, GC never firing) fails.
func TestSSDSteadyStateDivergence(t *testing.T) {
	res, err := AblationSSDSteady(ssdTestParams())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]SSDSteadyRow{}
	for _, r := range res.Rows {
		rows[r.Backend] = r
	}
	profile, fresh, steady := rows["profile"], rows["modeled/fresh"], rows["modeled/steady"]
	if profile.Backend == "" || fresh.Backend == "" || steady.Backend == "" {
		t.Fatalf("missing rows in %+v", res.Rows)
	}
	if profile.WriteAmp != 1 || profile.GCRuns != 0 {
		t.Fatalf("profile backend reported FTL activity (WA=%.2f GC=%d) — it has no FTL",
			profile.WriteAmp, profile.GCRuns)
	}
	if steady.GCRuns == 0 {
		t.Fatal("steady-state drive never garbage-collected: preconditioning regressed to fresh-drive behavior")
	}
	if steady.WriteAmp <= 1.05 {
		t.Fatalf("steady-state write amplification %.3f, want > 1.05", steady.WriteAmp)
	}
	if steady.WriteAmp <= fresh.WriteAmp {
		t.Fatalf("steady WA %.3f not above fresh WA %.3f", steady.WriteAmp, fresh.WriteAmp)
	}
	if steady.P999 <= profile.P999 {
		t.Fatalf("steady p99.9 %v not above profile p99.9 %v: the GC tail spike is gone",
			steady.P999, profile.P999)
	}
	// The tail must diverge relative to the median too, so a uniformly
	// slower model can't fake the spike.
	steadyRatio := float64(steady.P999) / float64(steady.P50)
	profileRatio := float64(profile.P999) / float64(profile.P50)
	if steadyRatio <= profileRatio {
		t.Fatalf("steady p99.9/p50 ratio %.1f not above profile's %.1f: tail is not GC-shaped",
			steadyRatio, profileRatio)
	}
}

// TestGCTailAblationDirection pins the same direction on the GC-policy
// ablation: both victim policies must amplify writes and grow the tail
// relative to the GC-free profile baseline.
func TestGCTailAblationDirection(t *testing.T) {
	res, err := AblationGCTail(ssdTestParams())
	if err != nil {
		t.Fatal(err)
	}
	var profile GCTailRow
	for _, r := range res.Rows {
		if r.Config == "profile" {
			profile = r
		}
	}
	for _, r := range res.Rows {
		if r.Config == "profile" {
			continue
		}
		if r.WriteAmp <= 1 {
			t.Fatalf("%s: WA %.3f, want > 1 at steady state", r.Config, r.WriteAmp)
		}
		if r.P999 <= profile.P999 {
			t.Fatalf("%s: p99.9 %v not above profile's %v", r.Config, r.P999, profile.P999)
		}
	}
}

// TestPMSHRAblationHonorsSSDBackend: a figure unit that builds its own
// machine still runs on the selected SSD backend. The modeled drive's
// latencies differ from the profile's, so the rows must too.
func TestPMSHRAblationHonorsSSDBackend(t *testing.T) {
	p := Params{MemoryMB: 4, DatasetRatio: 2, OpsPerThread: 200, WarmupOps: 50, Seed: 1}
	profile, err := AblationPMSHR(p)
	if err != nil {
		t.Fatal(err)
	}
	p.SSDBackend = "modeled"
	modeled, err := AblationPMSHR(p)
	if err != nil {
		t.Fatal(err)
	}
	if profile.String() == modeled.String() {
		t.Fatalf("AblationPMSHR printed the same rows on both backends:\n%s", modeled)
	}
}
