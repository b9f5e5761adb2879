package main

import (
	"encoding/json"
	"os"
	"testing"
)

// smokeSize runs every workload at 1/100 of the benchmark's size.
var smokeSize = size{ops: fullSize.ops / 100, warmup: fullSize.warmup / 100, fleetDur: fullSize.fleetDur / 100}

// specMetric is one metric as BENCHMARK.json declares it.
type specMetric struct{ Name, Unit, Better string }

// readSpec reads the parts of BENCHMARK.json the code must agree with.
func readSpec(t *testing.T) (workloads []string, endToEnd, perLayer []specMetric) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []specMetric `json:"end_to_end"`
		PerLayer  []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, spec.EndToEnd, spec.PerLayer
}

func TestSpecMatchesCode(t *testing.T) {
	workloads, e2e, layer := readSpec(t)
	if len(workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, code %v", workloads, workloadNames)
	}
	for i, w := range workloads {
		if w != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w, workloadNames[i])
		}
	}
	for _, c := range []struct {
		spec []specMetric
		code []metricDef
	}{{e2e, endToEnd}, {layer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Errorf("BENCHMARK.json declares %d metrics, code %d", len(c.spec), len(c.code))
			continue
		}
		for i, m := range c.spec {
			d := c.code[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, code %+v", i, m, d)
			}
		}
	}
}

// TestSmoke runs every workload small through the benchmark's own code
// path: two timed reps, the profiled rep and the traced rep must agree on
// the simulated digest and pass the invariant check, and the result line
// must carry exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	_, e2e, layer := readSpec(t)
	dir := t.TempDir()
	for _, name := range workloadNames {
		r, err := runWorkload(name, options{seed: 1, reps: 2, traced: true, size: smokeSize, profDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range r.problems {
			t.Errorf("%s: %s", name, p)
		}
		if r.reps != 2 || r.attempted == 0 {
			t.Errorf("%s: %d timed reps, %d ops", name, r.reps, r.attempted)
		}
		for traced, declared := range map[bool][]specMetric{false: e2e, true: layer} {
			res := summarize([]*report{r}, traced)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s: result line says correct %v, failed %d", name, res.Correct, res.Failed)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s: result line has %d metrics, BENCHMARK.json declares %d", name, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || len(r.vals[m.Name]) == 0 {
					t.Errorf("%s: metric %s: got %+v with %d values, want unit %s", name, m.Name, got, len(r.vals[m.Name]), m.Unit)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) and ([4, 1, 3, 2], n=4).
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
	} {
		if q1, med, q3 := quartiles(c.in); q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}
