package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// ManifestSchema versions the SWEEP_hwdp.json layout.
const ManifestSchema = 2

// RunRecord is one unit's row in the sweep manifest.
type RunRecord struct {
	// Name and Kind identify the unit.
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Status is the unit outcome ("ok", "failed", "panic", "timeout").
	Status Status `json:"status"`
	// DurationMS is wall-clock milliseconds spent on the unit.
	DurationMS float64 `json:"duration_ms"`
	// OutputSHA256 hashes the unit's output text; it is the per-unit
	// determinism witness (identical across -j values).
	OutputSHA256 string `json:"output_sha256"`
	// Error and Stack describe failures.
	Error string `json:"error,omitempty"`
	Stack string `json:"stack,omitempty"`
	// Data is the unit's structured result (a campaign or fleet report),
	// omitted for figures and tables.
	Data any `json:"data,omitempty"`
}

// Manifest is the machine-readable record of one sweep, written as
// SWEEP_hwdp.json for CI artifacts.
type Manifest struct {
	// Schema is ManifestSchema.
	Schema int `json:"schema"`
	// GoVersion, GOOS and GOARCH describe the host toolchain.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Workers is the requested pool bound (-j).
	Workers int `json:"workers"`
	// Units/OK/Failed summarize the run.
	Units  int `json:"units"`
	OK     int `json:"ok"`
	Failed int `json:"failed"`
	// WallMS is the sweep's end-to-end wall-clock time; AggregateMS sums
	// the per-unit durations. Their ratio is the measured parallel
	// speedup.
	WallMS          float64 `json:"wall_ms"`
	AggregateMS     float64 `json:"aggregate_ms"`
	ParallelSpeedup float64 `json:"parallel_speedup"`
	// Runs is one record per unit, in unit-list order.
	Runs []RunRecord `json:"runs"`
}

// NewManifest summarizes a sweep's results.
func NewManifest(results []Result, workers int, wall time.Duration) Manifest {
	m := Manifest{
		Schema:    ManifestSchema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Workers:   workers,
		Units:     len(results),
		WallMS:    float64(wall.Nanoseconds()) / 1e6,
	}
	var agg time.Duration
	for _, r := range results {
		rec := RunRecord{
			Name:         r.Name,
			Kind:         r.Kind,
			Status:       r.Status,
			DurationMS:   float64(r.Duration.Nanoseconds()) / 1e6,
			OutputSHA256: digest(r.Output),
			Error:        r.Err,
			Stack:        r.Stack,
			Data:         r.Data,
		}
		if r.Status == StatusOK {
			m.OK++
		} else {
			m.Failed++
		}
		agg += r.Duration
		m.Runs = append(m.Runs, rec)
	}
	m.AggregateMS = float64(agg.Nanoseconds()) / 1e6
	if m.WallMS > 0 {
		m.ParallelSpeedup = m.AggregateMS / m.WallMS
	}
	return m
}

// Write marshals the manifest to path as indented JSON.
func (m Manifest) Write(path string) error {
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}

// DeterministicSignature projects the manifest onto its host-independent
// fields — unit names, kinds, statuses and output hashes, in order — so
// two sweeps of the same units can be compared regardless of worker
// count or timing. Equality of signatures is the
// sequential-vs-parallel equivalence check used by the golden tests.
func (m Manifest) DeterministicSignature() string {
	var b strings.Builder
	for _, r := range m.Runs {
		fmt.Fprintf(&b, "%s|%s|%s|%s\n", r.Name, r.Kind, r.Status, r.OutputSHA256)
	}
	return b.String()
}

// digest hex-encodes SHA-256 of s.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
