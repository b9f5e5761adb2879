package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fakeUnit builds a trivial unit whose output is derived from its name
// and whose runtime is an artificial delay, so scheduling order can be
// perturbed without touching the simulator.
func fakeUnit(name string, delay time.Duration) Unit {
	return Unit{
		Name: name, Kind: "fake",
		Run: func() (string, any, error) {
			time.Sleep(delay)
			return "out:" + name + "\n", nil, nil
		},
	}
}

// TestOrderedOutputAcrossWorkerCounts is the core determinism contract:
// the aggregate output stream and the result slice are byte-identical for
// any -j, even when later units finish first.
func TestOrderedOutputAcrossWorkerCounts(t *testing.T) {
	var units []Unit
	for i := 0; i < 12; i++ {
		// Earlier units sleep longer, so under parallel workers the later
		// units complete first and the emitter must reorder.
		units = append(units, fakeUnit(fmt.Sprintf("u%02d", i),
			time.Duration(12-i)*time.Millisecond))
	}
	var want bytes.Buffer
	for _, u := range units {
		want.WriteString("out:" + u.Name + "\n")
	}
	for _, workers := range []int{1, 4, 16} {
		var out bytes.Buffer
		results := Run(units, Options{Workers: workers, Out: &out})
		if out.String() != want.String() {
			t.Fatalf("workers=%d: output diverged from sequential order:\n%q", workers, out.String())
		}
		for i, r := range results {
			if r.Name != units[i].Name {
				t.Fatalf("workers=%d: result %d is %s, want %s", workers, i, r.Name, units[i].Name)
			}
			if r.Status != StatusOK {
				t.Fatalf("workers=%d: %s status = %s", workers, r.Name, r.Status)
			}
		}
	}
}

// TestPanicIsolation injects a panicking run and verifies it fails alone,
// with a structured record carrying the stack, while every other unit
// completes and the ordered output skips only the dead unit.
func TestPanicIsolation(t *testing.T) {
	units := []Unit{
		fakeUnit("a", 0),
		{Name: "boom", Kind: "fake",
			Run: func() (string, any, error) { panic("injected failure") }},
		fakeUnit("b", 0),
	}
	var out bytes.Buffer
	results := Run(units, Options{Workers: 3, Out: &out})
	if got, want := out.String(), "out:a\nout:b\n"; got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
	r := results[1]
	if r.Status != StatusPanicked {
		t.Fatalf("status = %s, want %s", r.Status, StatusPanicked)
	}
	if !strings.Contains(r.Err, "injected failure") {
		t.Fatalf("error %q does not carry the panic value", r.Err)
	}
	if !strings.Contains(r.Stack, "sweep_test.go") {
		t.Fatalf("stack does not attribute the panic site:\n%s", r.Stack)
	}
	for _, i := range []int{0, 2} {
		if results[i].Status != StatusOK {
			t.Fatalf("unit %s did not survive the neighbouring panic", results[i].Name)
		}
	}
}

// TestErrorIsolation verifies a Run error becomes a failed record without
// stopping the sweep.
func TestErrorIsolation(t *testing.T) {
	units := []Unit{
		{Name: "bad", Kind: "fake",
			Run: func() (string, any, error) { return "", nil, fmt.Errorf("no such experiment") }},
		fakeUnit("ok", 0),
	}
	results := Run(units, Options{Workers: 2})
	if results[0].Status != StatusFailed || results[0].Err != "no such experiment" {
		t.Fatalf("failed record = %+v", results[0])
	}
	if results[1].Status != StatusOK {
		t.Fatal("healthy unit affected by neighbour failure")
	}
}

// TestTimeoutIsolation verifies the wall-clock watchdog abandons a hung
// unit with a structured record while the rest of the sweep completes.
func TestTimeoutIsolation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	units := []Unit{
		{Name: "hung", Kind: "fake",
			Run: func() (string, any, error) { <-release; return "late\n", nil, nil }},
		fakeUnit("ok", 0),
	}
	var out bytes.Buffer
	results := Run(units, Options{Workers: 2, UnitTimeout: 20 * time.Millisecond, Out: &out})
	if results[0].Status != StatusTimeout {
		t.Fatalf("status = %s, want %s", results[0].Status, StatusTimeout)
	}
	if !strings.Contains(results[0].Err, "wall-clock budget") {
		t.Fatalf("timeout error = %q", results[0].Err)
	}
	if results[1].Status != StatusOK {
		t.Fatal("healthy unit affected by neighbour timeout")
	}
	if got, want := out.String(), "out:ok\n"; got != want {
		t.Fatalf("output = %q, want %q", got, want)
	}
}

// TestDataSurvivesFailure verifies a unit's structured result is kept
// when Run also returns an error: the run ends failed, its Data is
// recorded, and the manifest JSON round-trips it as the run's "data".
func TestDataSurvivesFailure(t *testing.T) {
	type report struct {
		Name       string `json:"name"`
		Violations int    `json:"violations"`
	}
	units := []Unit{
		{Name: "dirty", Kind: "fake",
			Run: func() (string, any, error) {
				return "", report{Name: "dirty", Violations: 2}, fmt.Errorf("audit failed")
			}},
		fakeUnit("plain", 0),
	}
	results := Run(units, Options{Workers: 2})
	r := results[0]
	if r.Status != StatusFailed || r.Err != "audit failed" {
		t.Fatalf("failed record = %+v", r)
	}
	if got, ok := r.Data.(report); !ok || got.Violations != 2 {
		t.Fatalf("data = %#v, want the failed run's report", r.Data)
	}
	if results[1].Data != nil {
		t.Fatalf("plain unit data = %#v, want nil", results[1].Data)
	}

	b, err := json.Marshal(NewManifest(results, 2, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Runs []struct {
			Data *report `json:"data"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if d := got.Runs[0].Data; d == nil || *d != (report{Name: "dirty", Violations: 2}) {
		t.Fatalf("round-tripped data = %+v", d)
	}
	if got.Runs[1].Data != nil || strings.Contains(string(b), `"data": null`) {
		t.Fatalf("nil data was written for the plain unit:\n%s", b)
	}
}

// TestManifest verifies counts, the determinism witness and the JSON
// round trip of the sweep manifest.
func TestManifest(t *testing.T) {
	units := []Unit{
		fakeUnit("a", 0),
		{Name: "boom", Kind: "fake",
			Run: func() (string, any, error) { panic("x") }},
	}
	seq := NewManifest(Run(units, Options{Workers: 1}), 1, 5*time.Millisecond)
	par := NewManifest(Run(units, Options{Workers: 8}), 8, 5*time.Millisecond)
	if seq.OK != 1 || seq.Failed != 1 || seq.Units != 2 {
		t.Fatalf("manifest counts = %+v", seq)
	}
	if seq.DeterministicSignature() != par.DeterministicSignature() {
		t.Fatalf("deterministic signature depends on worker count:\n%s\nvs\n%s",
			seq.DeterministicSignature(), par.DeterministicSignature())
	}
	if !strings.Contains(seq.DeterministicSignature(), "boom|fake|panic|") {
		t.Fatalf("signature = %q", seq.DeterministicSignature())
	}

	path := filepath.Join(t.TempDir(), "SWEEP_test.json")
	if err := seq.Write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != ManifestSchema || len(got.Runs) != 2 {
		t.Fatalf("round-tripped manifest = %+v", got)
	}
	if got.Runs[1].Stack == "" {
		t.Fatal("panic stack missing from manifest")
	}
}

// TestProgressReporting verifies one line per unit lands on the progress
// writer and none of it leaks onto the output stream.
func TestProgressReporting(t *testing.T) {
	var out, prog bytes.Buffer
	units := []Unit{fakeUnit("a", 0), fakeUnit("b", 0), fakeUnit("c", 0)}
	Run(units, Options{Workers: 2, Out: &out, Progress: &prog})
	lines := strings.Split(strings.TrimRight(prog.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("progress lines = %d:\n%s", len(lines), prog.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, "sweep [") || !strings.Contains(l, "/3]") {
			t.Fatalf("malformed progress line %q", l)
		}
	}
	if strings.Contains(out.String(), "sweep [") {
		t.Fatal("progress leaked into the deterministic output stream")
	}
}
