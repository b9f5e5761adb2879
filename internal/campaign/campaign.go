// Package campaign composes the fault injector, the memory-pressure
// machinery and the invariant watchdog into chaos-pressure campaigns:
// named oversubscription scenarios that drive a machine well past its
// physical memory under deliberately hostile device behavior, audit every
// structural invariant while the storm runs, and report graceful-
// degradation metrics (tail latency, fallback rate, OOM kills, pressure
// stalls) that the sweep manifest records as each run's "data".
//
// A scenario is a fixed-seed experiment: same scenario, same bytes out.
// The campaign runner wraps scenarios as sweep units so the existing
// orchestrator provides parallelism, timeouts and panic capture; results
// are emitted and recorded in scenario order.
package campaign

import (
	"fmt"

	"hwdp/internal/check"
	"hwdp/internal/core"
	"hwdp/internal/fault"
	"hwdp/internal/kernel"
	"hwdp/internal/metrics"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/workload"
)

// Scenario is one chaos-pressure experiment: a scheme and memory size, an
// oversubscription ratio, a thread/process population, a write mix, the
// pressure knobs to arm, and the fault storm to run under.
type Scenario struct {
	// Name identifies the scenario ("ladder/hwdp/r2.0").
	Name string `json:"name"`
	// Kind groups scenarios for reporting: "ladder" rows feed the
	// HW-vs-OS comparison figure; "throttle" and "oom" exercise one
	// mechanism each.
	Kind string `json:"kind"`
	// Scheme selects the demand-paging implementation under test.
	Scheme kernel.Scheme `json:"-"`
	// MemoryMB is physical memory; OversubRatio sizes the anonymous
	// working set as ratio * frames (2.0 = twice physical memory).
	MemoryMB     int     `json:"memory_mb"`
	OversubRatio float64 `json:"oversub_ratio"`
	// Procs splits the working set across this many processes (the OOM
	// killer needs victims to choose between); Threads are spread over
	// the processes round-robin, one per physical core.
	Procs   int `json:"procs"`
	Threads int `json:"threads"`
	// OpsPerThread bounds the run; WriteFrac is the store fraction.
	OpsPerThread int     `json:"ops_per_thread"`
	WriteFrac    float64 `json:"write_frac"`
	// DirtyRatioFrac arms writeback throttling (0 = off);
	// OOMStallLimit arms the OOM killer (0 = off).
	DirtyRatioFrac float64  `json:"dirty_ratio_frac"`
	OOMStallLimit  sim.Time `json:"oom_stall_limit_ps"`
	// Faults is the device-level storm to run under.
	Faults []fault.Rule `json:"-"`
	// Seed drives all randomness.
	Seed uint64 `json:"seed"`
}

// PSIRow is one stall kind's pressure summary.
type PSIRow struct {
	Kind       string  `json:"kind"`
	Stalls     uint64  `json:"stalls"`
	TaskTimeUS float64 `json:"task_time_us"`
	SomeTimeUS float64 `json:"some_time_us"`
}

// Result is the degradation report of one scenario run.
type Result struct {
	Name         string  `json:"name"`
	Kind         string  `json:"kind"`
	Scheme       string  `json:"scheme"`
	OversubRatio float64 `json:"oversub_ratio"`

	// Workload outcome.
	Ops        uint64  `json:"ops"`
	Errors     uint64  `json:"errors"`
	Throughput float64 `json:"throughput_ops_per_sec"`
	P50US      float64 `json:"p50_us"`
	P99US      float64 `json:"p99_us"`
	P999US     float64 `json:"p999_us"`

	// Degradation counters.
	FallbackRate    float64 `json:"fallback_rate"` // HW misses bounced to the OS
	OOMKills        uint64  `json:"oom_kills"`
	OOMReapedPages  uint64  `json:"oom_reaped_pages"`
	ThrottledWrites uint64  `json:"throttled_writes"`
	AllocStalls     uint64  `json:"alloc_stalls"`
	BlockTimeouts   uint64  `json:"block_timeouts"` // OS commands aborted after no completion
	BlockRetries    uint64  `json:"block_retries"`  // OS commands resubmitted after a failure
	FlusherRuns     uint64  `json:"flusher_runs"`
	FlusherPages    uint64  `json:"flusher_pages"`
	Evictions       uint64  `json:"evictions"`
	Writebacks      uint64  `json:"writebacks"`
	BacklogWaits    uint64  `json:"backlog_waits"`

	// Pressure-stall accounting, one row per stall kind.
	PSI []PSIRow `json:"psi"`

	// Audit outcome: the watchdog's tick count, every violation it saw,
	// and the frames unaccounted for after the run settled (both must be
	// zero/empty for a healthy machine).
	WatchdogRuns       int      `json:"watchdog_runs"`
	WatchdogViolations []string `json:"watchdog_violations"`
	LeakedFrames       int      `json:"leaked_frames"`
}

// watchdogPeriod is the audit cadence during a campaign run.
const watchdogPeriod = 500 * sim.Microsecond

// Run executes one scenario to completion and returns its report. The
// machine is audited by a watchdog for the whole run; after the workload
// finishes, the run settles (in-flight writebacks drain) and the frame
// ledger is balanced: every allocated frame must be accounted for by a
// page-cache entry, a mapped PTE, the WAL buffer or an SMU queue.
func Run(sc Scenario) Result {
	cfg := core.DefaultConfig(sc.Scheme)
	cfg.MemoryBytes = uint64(sc.MemoryMB) << 20
	cfg.Seed = sc.Seed
	cfg.FaultRules = sc.Faults
	cfg.Kernel.DirtyRatioFrac = sc.DirtyRatioFrac
	cfg.Kernel.OOMStallLimit = sc.OOMStallLimit
	sys := cfg.Build()

	psi := metrics.NewPSI()
	sys.K.SetPSI(psi)
	for _, u := range sys.SMUs {
		u.SetPSI(psi)
	}
	wd := check.NewWatchdog(sys, watchdogPeriod)

	// Working set: ratio * frames anonymous pages, split over the
	// processes. Process 0 is the system's initial process.
	procs := []*kernel.Process{sys.Proc}
	for len(procs) < sc.Procs {
		procs = append(procs, sys.K.NewProcess())
	}
	totalPages := int(float64(sys.Mem.Frames()) * sc.OversubRatio)
	perProc := totalPages / len(procs)
	fast := sc.Scheme != kernel.OSDP
	prot := pagetable.Prot{Write: true, User: true}
	// Each process's threads hammer its anonymous region: a sequential
	// populate sweep per thread first (so the full working set is touched
	// and oversubscription actually evicts), then a scrambled-zipfian mix
	// of loads and stores, each access issued with no per-op cost.
	works := make([]*workload.FIO, len(procs))
	for i, p := range procs {
		va, err := sys.K.MmapAnon(p, 0, 0, perProc, prot, fast)
		if err != nil {
			panic(fmt.Sprintf("campaign: mmap %d pages for proc %d: %v", perProc, i, err))
		}
		works[i] = &workload.FIO{
			Sys: sys, Base: va, Pages: perProc,
			Gen:       workload.Scrambled{Gen: workload.NewZipfian(uint64(perProc), workload.ZipfTheta), N: uint64(perProc)},
			WriteFrac: sc.WriteFrac,
			Populate:  true,
			Bare:      true,
		}
	}

	// Threads round-robin over processes, one per physical core so the
	// kernel's background threads keep their SMT siblings.
	assignments := make([]workload.Assignment, sc.Threads)
	for i := 0; i < sc.Threads; i++ {
		pi := i % len(procs)
		assignments[i] = workload.Assignment{Th: sys.K.NewThread(procs[pi], 2*i), W: works[pi]}
	}
	results := workload.RunMixed(sys, assignments, workload.RunOptions{OpsPerThread: sc.OpsPerThread})

	// Settle: let in-flight writebacks, reclaim batches and parked
	// commands drain so the frame ledger can be balanced.
	leaked := func() int {
		outstanding := int(sys.Mem.Allocs() - sys.Mem.Frees())
		accounted := sys.K.AccountedFrames()
		for _, u := range sys.SMUs {
			accounted += u.FramesHeld()
		}
		return outstanding - accounted
	}
	for i := 0; i < 50 && leaked() != 0; i++ {
		sys.RunFor(2 * sim.Millisecond)
	}
	wd.Stop()

	merged := workload.Merge(results)
	ks := sys.K.Stats()
	ms := sys.MMU.Stats()
	res := Result{
		Name:         sc.Name,
		Kind:         sc.Kind,
		Scheme:       sc.Scheme.String(),
		OversubRatio: sc.OversubRatio,

		Ops:        merged.Ops,
		Errors:     merged.Errors,
		Throughput: merged.Throughput(),
		P50US:      float64(merged.Lat.Percentile(50)) / 1e6,
		P99US:      float64(merged.Lat.Percentile(99)) / 1e6,
		P999US:     float64(merged.Lat.Percentile(99.9)) / 1e6,

		OOMKills:        ks.OOMKills,
		OOMReapedPages:  ks.OOMReapedPages,
		ThrottledWrites: ks.ThrottledWrites,
		AllocStalls:     ks.AllocStalls,
		BlockTimeouts:   ks.BlockTimeouts,
		BlockRetries:    ks.BlockRetries,
		FlusherRuns:     ks.FlusherRuns,
		FlusherPages:    ks.FlusherPages,
		Evictions:       ks.Evictions,
		Writebacks:      ks.Writebacks,
		BacklogWaits:    sys.BacklogWait().Count(),

		WatchdogRuns: wd.Runs(),
		LeakedFrames: leaked(),
	}
	if ms.HWMisses > 0 {
		res.FallbackRate = float64(ms.HWBounced) / float64(ms.HWMisses)
	}
	for k := metrics.StallKind(0); k < metrics.NumStallKinds; k++ {
		res.PSI = append(res.PSI, PSIRow{
			Kind:       k.String(),
			Stalls:     psi.Stalls(k),
			TaskTimeUS: float64(psi.TaskTime(k)) / 1e6,
			SomeTimeUS: float64(psi.SomeTime(k)) / 1e6,
		})
	}
	for _, v := range wd.Violations() {
		res.WatchdogViolations = append(res.WatchdogViolations, v.String())
	}
	if wd.Truncated() {
		res.WatchdogViolations = append(res.WatchdogViolations,
			fmt.Sprintf("... truncated at %d violations", len(wd.Violations())))
	}
	return res
}

// stormRules is the shared device-level chaos: recoverable media errors
// plus latency spikes, on both the SMU and OS queues.
func stormRules() []fault.Rule {
	return []fault.Rule{
		{Kind: fault.Transient, Prob: 0.02},
		{Kind: fault.Spike, Prob: 0.01, SpikeFactor: 8},
	}
}

// DefaultScenarios returns the campaign: an oversubscription ladder under
// a fault storm for HWDP vs OSDP (the comparison figure's rows), a
// dirty-writeback throttling scenario and an OOM scenario. quick shrinks
// every scenario for CI smoke runs.
func DefaultScenarios(quick bool) []Scenario {
	// OpsPerThread must cover the largest per-thread populate sweep
	// (ratio 2.5 * frames / procs) with headroom for the zipfian phase,
	// or oversubscription never materializes.
	memMB, threads, ops := 16, 4, 10000
	if quick {
		memMB, threads, ops = 4, 2, 2600
	}
	var out []Scenario
	for _, scheme := range []kernel.Scheme{kernel.HWDP, kernel.OSDP} {
		for _, ratio := range []float64{0.9, 1.5, 2.0} {
			out = append(out, Scenario{
				Name:         fmt.Sprintf("ladder/%s/r%.1f", schemeSlug(scheme), ratio),
				Kind:         "ladder",
				Scheme:       scheme,
				MemoryMB:     memMB,
				OversubRatio: ratio,
				Procs:        1,
				Threads:      threads,
				OpsPerThread: ops,
				WriteFrac:    0.3,
				Faults:       stormRules(),
				Seed:         1,
			})
		}
	}
	out = append(out, Scenario{
		Name:         "throttle/hwdp",
		Kind:         "throttle",
		Scheme:       kernel.HWDP,
		MemoryMB:     memMB,
		OversubRatio: 1.2,
		Procs:        1,
		Threads:      threads,
		// Throttled writes burn 100 µs slices each; half the op budget
		// still throttles thousands of times without dominating the
		// campaign's virtual (and wall) time.
		OpsPerThread: ops / 2,
		WriteFrac:    0.8,
		// A tight dirty budget forces both background writeback and
		// write throttling to engage.
		DirtyRatioFrac: 0.10,
		Faults:         stormRules(),
		Seed:           2,
	})
	out = append(out, Scenario{
		Name:         "oom/hwdp",
		Kind:         "oom",
		Scheme:       kernel.HWDP,
		MemoryMB:     memMB,
		OversubRatio: 2.5,
		Procs:        3,
		Threads:      threads,
		OpsPerThread: ops,
		WriteFrac:    0.9,
		// Slow writebacks (latency spikes on writes) hold reclaim back
		// long enough for allocation stalls to cross the OOM limit.
		OOMStallLimit: 200 * sim.Microsecond,
		Faults: append(stormRules(),
			fault.Rule{Kind: fault.Spike, Prob: 0.5, WritesOnly: true, SpikeFactor: 40}),
		Seed: 3,
	})
	return out
}

// schemeSlug is the lower-case scheme name used in scenario names.
func schemeSlug(s kernel.Scheme) string {
	switch s {
	case kernel.HWDP:
		return "hwdp"
	case kernel.SWDP:
		return "swdp"
	case kernel.OSDP:
		return "osdp"
	}
	return "unknown"
}
