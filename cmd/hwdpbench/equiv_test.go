package main

// Golden sequential-vs-parallel equivalence. The sweep scheduler's whole
// claim is that `-j N` buys wall-clock speedup without touching a single
// output byte: the figure/table text and every deterministic field of the
// artifacts must be identical whether units run one at a time or
// interleaved on eight workers. This test runs the real `-all -quick`
// unit set both ways and compares.

import (
	"bytes"
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
