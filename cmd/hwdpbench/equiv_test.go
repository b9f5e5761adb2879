package main

// Golden sequential-vs-parallel equivalence. The sweep scheduler's whole
// claim is that `-j N` buys wall-clock speedup without touching a single
// output byte: the figure/table text and every deterministic field of the
// artifacts must be identical whether units run one at a time or
// interleaved on eight workers. These tests run the real `-all -quick`
// unit set (and the -bench report) both ways and compare.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hwdp/internal/figures"
	"hwdp/internal/sweep"
)

// TestSweepParallelEquivalence asserts the `-all -quick` stdout stream is
// byte-identical at -j 1 and -j 8, and that the manifests' deterministic
// projections (unit names, statuses, output hashes) agree.
func TestSweepParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full -all -quick unit set twice; skipped in -short mode")
	}
	units := figures.Units(figures.Quick(), nil)
	runAt := func(workers int) (string, sweep.Manifest) {
		var out bytes.Buffer
		start := time.Now()
		rs := sweep.Run(units, sweep.Options{Workers: workers, Out: &out})
		m := sweep.NewManifest(rs, workers, time.Since(start))
		for _, r := range rs {
			if r.Status != sweep.StatusOK {
				t.Fatalf("workers=%d: unit %s %s: %s", workers, r.Name, r.Status, r.Err)
			}
		}
		return out.String(), m
	}
	seqOut, seqM := runAt(1)
	parOut, parM := runAt(8)
	if seqOut != parOut {
		i := 0
		for i < len(seqOut) && i < len(parOut) && seqOut[i] == parOut[i] {
			i++
		}
		t.Fatalf("-j 8 output diverges from -j 1 at byte %d:\n seq: %q\n par: %q",
			i, tail(seqOut, i), tail(parOut, i))
	}
	if seqM.DeterministicSignature() != parM.DeterministicSignature() {
		t.Fatalf("manifest determinism witness diverged:\n%s\nvs\n%s",
			seqM.DeterministicSignature(), parM.DeterministicSignature())
	}
}

// tail returns a short context window of s starting at i, for diffs.
func tail(s string, i int) string {
	end := i + 120
	if end > len(s) {
		end = len(s)
	}
	return s[i:end]
}

// TestBenchReportParallelEquivalence asserts BENCH_hwdp.json is
// byte-identical between a -j 1 and a -j 8 sweep once the host-timing
// fields (iters, ns/op, B/op, allocs/op, events/s) are normalized away —
// those measure the machine, not the simulation, and no amount of
// scheduling may change anything else. Benchmarks run one iteration
// (test.benchtime=1x): the report's structure is under test here, not
// its timing quality.
func TestBenchReportParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark suite twice; skipped in -short mode")
	}
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	runAt := func(workers int, name string) benchReport {
		path := filepath.Join(dir, name)
		rs := sweep.Run([]sweep.Unit{benchUnit(true, path)},
			sweep.Options{Workers: workers})
		if rs[0].Status != sweep.StatusOK {
			t.Fatalf("workers=%d: bench unit %s: %s", workers, rs[0].Status, rs[0].Err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep benchReport
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	seq := normalizeBench(runAt(1, "seq.json"))
	par := normalizeBench(runAt(8, "par.json"))
	seqJSON, err := json.MarshalIndent(seq, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := json.MarshalIndent(par, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Fatalf("normalized BENCH reports diverge between -j 1 and -j 8:\n%s\nvs\n%s",
			seqJSON, parJSON)
	}
}

// normalizeBench zeroes the host-dependent measurement fields, keeping
// schema, benchmark identity/order and the pinned baselines.
func normalizeBench(rep benchReport) benchReport {
	for i := range rep.Bench {
		rep.Bench[i].Iters = 0
		rep.Bench[i].NsPerOp = 0
		rep.Bench[i].BytesPerOp = 0
		rep.Bench[i].AllocsPerOp = 0
		rep.Bench[i].SimEventsPerSec = 0
	}
	rep.MissPathAllocsReductionPct = 0
	return rep
}
