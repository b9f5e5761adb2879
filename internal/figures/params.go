// Package figures regenerates every table and figure of the paper's
// evaluation (and the motivation figures of Section II) on the simulated
// machine. Each FigNN function runs the experiment and returns a
// structured result whose String() prints the same rows/series the paper
// reports; cmd/hwdpbench and the repository benchmarks both call in here.
package figures

import (
	"fmt"

	"hwdp/internal/core"
	"hwdp/internal/kernel"
	"hwdp/internal/kvs"
	"hwdp/internal/sim"
	"hwdp/internal/workload"
)

// Params scales the experiments. The paper's 32 GiB / 64 GiB setup is
// scaled down preserving the dataset:memory ratio; Ops counts trade
// precision for run time.
type Params struct {
	MemoryMB     int
	DatasetRatio float64 // dataset = ratio × memory
	OpsPerThread int
	WarmupOps    int
	Seed         uint64
	// SSDBackend selects the device media model for every unit: "" or
	// "profile" keeps the latency-profile backend, "modeled" swaps in the
	// FTL/GC model (core.Config.SSDBackend; see docs/SSD.md). The
	// fresh-vs-steady figures (fig/ssd, fig/gctail) always run both, and
	// Fig. 11, Fig. 17 and the device sweep run fixed devices; they
	// ignore this field.
	SSDBackend string
	// SSDFill is the modeled backend's preconditioning fill fraction
	// (0 means the backend default of 1: the dataset ships on flash).
	SSDFill float64
	// SSDChurn is the modeled backend's preconditioning churn in
	// multiples of the filled capacity; 0 keeps the drive fresh. The
	// steady-state figures use max(SSDChurn, 2) for their aged rows.
	SSDChurn float64
}

// Default returns full-fidelity simulation-scale parameters: the run's
// access footprint comfortably exceeds memory, so throughput numbers are
// taken in eviction steady state like the paper's 128 GiB-footprint runs.
func Default() Params {
	return Params{MemoryMB: 32, DatasetRatio: 2, OpsPerThread: 9000, WarmupOps: 3500, Seed: 1}
}

// Quick returns reduced parameters for unit tests and -short benches.
func Quick() Params {
	return Params{MemoryMB: 16, DatasetRatio: 2, OpsPerThread: 4500, WarmupOps: 1800, Seed: 1}
}

func (p Params) memoryBytes() uint64 { return uint64(p.MemoryMB) << 20 }

func (p Params) datasetPages() int {
	return int(float64(p.memoryBytes()) * p.DatasetRatio / 4096)
}

// config returns the standard evaluation machine's configuration for a
// scheme (Z-SSD), on the Params' SSD backend; units set their own knobs
// on it before Build.
func (p Params) config(scheme kernel.Scheme) core.Config {
	cfg := core.DefaultConfig(scheme)
	cfg.MemoryBytes = p.memoryBytes()
	cfg.Seed = p.Seed
	cfg.FSBlocks = uint64(p.datasetPages())*4 + (1 << 16)
	// Scale kpted so (period / memory rotation time) matches the paper's
	// 1 s on 32 GiB (rotation ≥ 10 s): small memories rotate in fractions
	// of a second.
	cfg.Kernel.KptedPeriod = sim.Time(p.MemoryMB) * 600 * sim.Microsecond
	p.ApplySSD(&cfg)
	return cfg
}

// ApplySSD threads the Params' SSD-backend selection into a machine
// config ("profile" normalizes to the default empty selector); exported
// for harnesses (hwdpbench's traced sweep) that assemble their own
// core.Config.
func (p Params) ApplySSD(cfg *core.Config) {
	if p.SSDBackend == "" || p.SSDBackend == "profile" {
		return
	}
	cfg.SSDBackend = p.SSDBackend
	cfg.SSDModeled.FillFrac = p.SSDFill
	cfg.SSDModeled.ChurnOverwrites = p.SSDChurn
}

// threadSet returns n workload threads pinned one per physical core.
func threadSet(sys *core.System, n int) []*kernel.Thread {
	ths := make([]*kernel.Thread, n)
	for i := range ths {
		ths[i] = sys.WorkloadThread(i)
	}
	return ths
}

// buildKV creates the dataset-sized record store mapped with the scheme's
// flags.
func buildKV(sys *core.System, p Params) (*kvs.Store, error) {
	return kvs.Create(sys.K, sys.FS, sys.Proc, "rocksdb.sst",
		uint64(p.datasetPages()), 0, 0, sys.FastFlags())
}

// runYCSB runs one YCSB variant and returns the merged result.
func runYCSB(sys *core.System, p Params, variant byte, threads int) (workload.Result, error) {
	st, err := buildKV(sys, p)
	if err != nil {
		return workload.Result{}, err
	}
	w, err := workload.NewYCSB(sys, st, variant)
	if err != nil {
		return workload.Result{}, err
	}
	rs := workload.Run(sys, threadSet(sys, threads), w,
		workload.RunOptions{OpsPerThread: p.OpsPerThread, WarmupOps: p.WarmupOps})
	m := workload.Merge(rs)
	if m.Errors > 0 {
		return m, fmt.Errorf("figures: %d corrupt reads in YCSB-%c", m.Errors, variant)
	}
	return m, nil
}
