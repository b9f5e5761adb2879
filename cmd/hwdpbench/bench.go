package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"hwdp/internal/sweep"

	"hwdp/internal/core"
	"hwdp/internal/fleet"
	"hwdp/internal/kernel"
	"hwdp/internal/mem"
	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/smu"
	"hwdp/internal/ssd"
	"hwdp/internal/workload"
)

// The -bench mode runs fixed-seed micro- and macro-benchmarks of the
// simulator hot path and writes a machine-readable report. CI runs the
// short variant on every push and uploads the report as an artifact, so
// performance regressions show up next to test failures rather than months
// later.
//
// All benchmarks are seeded: the simulated work is byte-identical across
// runs, so ns/op noise comes only from the host machine.

// benchResult is one benchmark row of the report.
type benchResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// SimEventsPerSec is discrete-event throughput (events retired per wall
	// second); only set for benchmarks that drive the full engine.
	SimEventsPerSec float64 `json:"sim_events_per_sec,omitempty"`
}

// benchBaseline pins the pre-optimization numbers (commit d31df3a, the
// container/heap engine with per-event closures) so the report carries its
// own point of comparison.
type benchBaseline struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchReport is the BENCH_hwdp.json schema.
type benchReport struct {
	Schema    int    `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Short     bool   `json:"short"`
	// GOMAXPROCS records the host parallelism the numbers were taken at.
	GOMAXPROCS int                      `json:"gomaxprocs"`
	Bench      []benchResult            `json:"benchmarks"`
	Baseline   map[string]benchBaseline `json:"baseline"`
	// MissPathAllocsReductionPct is (1 - current/baseline) * 100 for the
	// miss_path benchmark's allocs/op — the headline number the
	// optimization work is judged by.
	MissPathAllocsReductionPct float64 `json:"miss_path_allocs_reduction_pct"`
}

// baselines are measured on the pre-optimization tree with the same
// benchmark bodies (go test -bench, linux/amd64).
var baselines = map[string]benchBaseline{
	"miss_path":                   {NsPerOp: 1948, AllocsPerOp: 20, BytesPerOp: 1179},
	"engine_schedule_fire_handle": {NsPerOp: 263.7, AllocsPerOp: 1, BytesPerOp: 48},
}

// benchUnit wraps the benchmark suite as a sweep unit. It is uncacheable
// by design: ns/op measures the host, not just the code and config, so a
// cached report would be a stale measurement.
func benchUnit(short bool, outPath string) sweep.Unit {
	return sweep.Unit{
		Name:        "bench",
		Kind:        "bench",
		Fingerprint: fmt.Sprintf("short=%v out=%s", short, outPath),
		Uncacheable: true,
		Run:         func() (string, error) { return runBench(short, outPath) },
	}
}

// runBench executes the benchmark suite, writes the JSON report to
// outPath and returns the human-readable summary. Short mode shrinks the
// macro sweep so CI finishes in seconds.
func runBench(short bool, outPath string) (string, error) {
	var sb strings.Builder
	rep := benchReport{
		Schema:     1,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Short:      short,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Baseline:   baselines,
	}
	add := func(name string, r testing.BenchmarkResult, eventsPerSec float64) {
		rep.Bench = append(rep.Bench, benchResult{
			Name:            name,
			Iters:           r.N,
			NsPerOp:         float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp:     r.AllocsPerOp(),
			BytesPerOp:      r.AllocedBytesPerOp(),
			SimEventsPerSec: eventsPerSec,
		})
		fmt.Fprintf(&sb, "%-28s %12d iters %10.1f ns/op %6d B/op %4d allocs/op",
			name, r.N, float64(r.T.Nanoseconds())/float64(r.N),
			r.AllocedBytesPerOp(), r.AllocsPerOp())
		if eventsPerSec > 0 {
			fmt.Fprintf(&sb, "  %11.0f sim-events/s", eventsPerSec)
		}
		sb.WriteString("\n")
	}

	add("engine_schedule_fire_post", benchEnginePost(), 0)
	add("engine_schedule_fire_handle", benchEngineHandle(), 0)
	r, eps := benchMissPath()
	add("miss_path", r, eps)
	r, eps = benchFigureSweep(short)
	add("figure_sweep", r, eps)
	add("fleet_fifo", benchFleet(short, false), 0)
	add("fleet_qos", benchFleet(short, true), 0)

	for _, b := range rep.Bench {
		if b.Name != "miss_path" {
			continue
		}
		base := baselines["miss_path"]
		rep.MissPathAllocsReductionPct =
			(1 - float64(b.AllocsPerOp)/float64(base.AllocsPerOp)) * 100
		fmt.Fprintf(&sb, "miss_path allocs/op: %d -> %d (%.0f%% reduction vs baseline)\n",
			base.AllocsPerOp, b.AllocsPerOp, rep.MissPathAllocsReductionPct)
	}

	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return "", err
	}
	out = append(out, '\n')
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		return "", err
	}
	fmt.Fprintf(&sb, "wrote %s\n", outPath)
	return sb.String(), nil
}

// benchEnginePost measures the pooled fire-and-forget schedule/fire path
// (the one the model's hot paths use).
func benchEnginePost() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		e := sim.NewEngine()
		fn := func() {}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.Post(sim.Time(i%1000), fn)
			if e.Pending() > 1024 {
				for e.Step() {
				}
			}
		}
		e.Run()
	})
}

// benchEngineHandle measures the allocating handle path (After), directly
// comparable to the pre-optimization baseline.
func benchEngineHandle() testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		e := sim.NewEngine()
		fn := func() {}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e.After(sim.Time(i%1000), fn)
			if e.Pending() > 1024 {
				for e.Step() {
				}
			}
		}
		e.Run()
	})
}

// benchMissPath measures the full hardware miss path (SMU + NVMe device
// model) in isolation — the same shape as internal/smu's BenchmarkHandleMiss
// — and reports simulated-event throughput alongside ns/op.
func benchMissPath() (testing.BenchmarkResult, float64) {
	var events uint64
	var wall time.Duration
	r := testing.Benchmark(func(b *testing.B) {
		eng := sim.NewEngine()
		prof := ssd.ZSSD
		prof.JitterFrac = 0
		dev := ssd.New(eng, prof, sim.NewRand(1), nil)
		dev.AddNamespace(nvme.Namespace{ID: 1, Blocks: 1 << 30})
		s := smu.New(eng, 0, 1<<16)
		qp := nvme.NewQueuePair(1, 2*smu.PMSHREntries)
		s.AttachDevice(0, dev, qp, 1)
		tbl := pagetable.New()
		recs := make([]smu.FrameRecord, 0, 1024)
		for i := 0; i < 1024; i++ {
			recs = append(recs, smu.RecordFor(mem.FrameID(i)))
		}
		done := false
		complete := func(smu.Result, pagetable.Entry) { done = true }
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if s.FreeQueue().Len()+s.FreeQueue().Buffered() < 8 {
				s.Refill(recs)
			}
			va := pagetable.VAddr(uint64(i)%(1<<20)) << 12
			pud, pmd, pte := tbl.Ensure(va)
			blk := pagetable.BlockAddr{LBA: uint64(i)}
			pte.Set(pagetable.MakeLBA(blk, pagetable.Prot{}))
			done = false
			s.HandleMiss(smu.Request{PUD: pud, PMD: pmd, PTE: pte, Block: blk}, complete)
			for !done && eng.Step() {
			}
		}
		wall = time.Since(start)
		events = eng.Fired()
	})
	eps := 0.0
	if wall > 0 {
		eps = float64(events) / wall.Seconds()
	}
	return r, eps
}

// benchFleet measures one multi-tenant fleet experiment end to end (3
// tenants on 2 sockets, 16 threads, contended PMSHR) with admission FIFO
// or weighted-fair — the fleet_fifo row prices the tenant accounting
// mirror on the miss path, and fleet_qos adds the QoS gate/park/drain
// machinery on top.
func benchFleet(short, qos bool) testing.BenchmarkResult {
	c := fleet.DefaultConfig()
	c.QoS = qos
	c.Duration = 12 * sim.Millisecond
	c.Warmup = 3 * sim.Millisecond
	if short {
		c.Duration = 6 * sim.Millisecond
		c.Warmup = 2 * sim.Millisecond
	}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fleet.Run(c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchFigureSweep measures a full-system fixed-seed FIO sweep (kernel +
// MMU + SMU + device, HWDP scheme) — the macro workload behind the paper's
// figures. One iteration is one complete sweep.
func benchFigureSweep(short bool) (testing.BenchmarkResult, float64) {
	ops, warm := 2000, 200
	if short {
		ops, warm = 500, 100
	}
	const (
		filePages = 64 << 8
		memBytes  = 32 << 20
		threads   = 4
	)
	var events uint64
	var wall time.Duration
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		start := time.Now()
		var fired uint64
		for i := 0; i < b.N; i++ {
			cfg := core.DefaultConfig(kernel.HWDP)
			cfg.MemoryBytes = memBytes
			cfg.Seed = 1
			cfg.FSBlocks = filePages + (1 << 16)
			sys := cfg.Build()
			fio, err := workload.SetupFIO(sys, "fio.dat", filePages, sys.FastFlags())
			if err != nil {
				b.Fatal(err)
			}
			fio.Cold = true
			ths := make([]*kernel.Thread, threads)
			for t := range ths {
				ths[t] = sys.WorkloadThread(t)
			}
			workload.Run(sys, ths, fio,
				workload.RunOptions{OpsPerThread: ops, WarmupOps: warm})
			fired += sys.Eng.Fired()
		}
		wall = time.Since(start)
		events = fired
	})
	eps := 0.0
	if wall > 0 {
		eps = float64(events) / wall.Seconds()
	}
	return r, eps
}
