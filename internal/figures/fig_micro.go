package figures

import (
	"fmt"
	"strings"

	"hwdp/internal/core"
	"hwdp/internal/kernel"
	"hwdp/internal/sim"
	"hwdp/internal/ssd"
	"hwdp/internal/trace"
	"hwdp/internal/workload"
)

// Fig11Result is Figure 11: (a) the OSDP-vs-HWDP before/after-device
// breakdown and (b) the HWDP single-miss hardware timeline.
type Fig11Result struct {
	OSDPBefore, OSDPAfter sim.Time
	HWDPBefore, HWDPAfter sim.Time
	BeforeReduction       sim.Time
	AfterReduction        sim.Time
	OSDPTotal, HWDPTotal  sim.Time // measured end-to-end single-fault latencies
	// Timeline is the HWDP miss's SMU- and NVMe-layer trace spans, in
	// recording order.
	Timeline []trace.Span
}

// fig11Labels maps the SMU and NVMe span names of a hardware miss to the
// phase labels of the paper's Fig. 11(b).
var fig11Labels = map[string]string{
	"req-regs+cam":    "request regs + CAM lookup",
	"free-page-fetch": "free page fetch",
	"pmshr-write":     "PMSHR write",
	"nvme-cmd-write":  "NVMe cmd write",
	"sq-doorbell":     "SQ doorbell",
	"cq-handle":       "CQ handle",
	"pt-update":       "PT update",
	"notify-mmu":      "notify MMU",
}

// Fig11 measures one fault under each scheme and takes the hardware
// timeline from the traced HWDP miss.
func Fig11(p Params) (*Fig11Result, error) {
	single := func(scheme kernel.Scheme) (sim.Time, *core.System, error) {
		cfg := core.DefaultConfig(scheme)
		cfg.MemoryBytes = p.memoryBytes()
		cfg.DeviceJitter = false
		cfg.TraceEnabled = scheme == kernel.HWDP
		sys := cfg.Build()
		va, _, err := sys.MapFile("probe", 16, nil, sys.FastFlags())
		if err != nil {
			return 0, nil, err
		}
		return sys.MeasureSingleFault(sys.WorkloadThread(0), va), sys, nil
	}
	osLat, osSys, err := single(kernel.OSDP)
	if err != nil {
		return nil, err
	}
	hwLat, hwSys, err := single(kernel.HWDP)
	if err != nil {
		return nil, err
	}
	misses := hwSys.Trace.Misses()
	if len(misses) != 1 {
		return nil, fmt.Errorf("fig11: traced %d HWDP misses, want 1", len(misses))
	}
	c := osSys.K.Config().Costs
	walk := osSys.MMU.WalkLatency
	tm := hwSys.SMUs[0].Timing()
	r := &Fig11Result{
		OSDPBefore: walk + c.OSDPBeforeDevice(),
		OSDPAfter:  c.OSDPAfterDevice(),
		HWDPBefore: walk + tm.BeforeDevice(),
		HWDPAfter:  tm.AfterDevice(),
		OSDPTotal:  osLat,
		HWDPTotal:  hwLat,
	}
	for _, sp := range misses[0].Spans {
		if sp.Layer == trace.LayerSMU || sp.Layer == trace.LayerNVMe {
			r.Timeline = append(r.Timeline, sp)
		}
	}
	r.BeforeReduction = r.OSDPBefore - r.HWDPBefore
	r.AfterReduction = r.OSDPAfter - r.HWDPAfter
	return r, nil
}

// String renders the Fig11Result as the paper-style text table.
func (r *Fig11Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 11(a): single page-miss latency around device I/O\n")
	fmt.Fprintf(&b, "  scheme   before-device   after-device   total (measured)\n")
	fmt.Fprintf(&b, "  OSDP     %13v  %13v  %v\n", r.OSDPBefore, r.OSDPAfter, r.OSDPTotal)
	fmt.Fprintf(&b, "  HWDP     %13v  %13v  %v\n", r.HWDPBefore, r.HWDPAfter, r.HWDPTotal)
	fmt.Fprintf(&b, "  reduction: before %v (paper: 2.38us), after %v (paper: 6.16us)\n",
		r.BeforeReduction, r.AfterReduction)
	b.WriteString("Figure 11(b): HWDP single-miss hardware timeline\n")
	for _, sp := range r.Timeline {
		fmt.Fprintf(&b, "  %-28s %10v (%d cycles)\n", fig11Labels[sp.Name], sp.Dur(), sp.Dur().ToCycles())
	}
	return b.String()
}

// Fig12Row is one thread count of Figure 12.
type Fig12Row struct {
	Threads   int
	OSDP      sim.Time // mean FIO 4 KiB read latency
	HWDP      sim.Time
	Reduction float64
}

// Fig12Result is the FIO demand-paging latency sweep.
type Fig12Result struct{ Rows []Fig12Row }

// Fig12 runs FIO randread (mmap engine) at 1–8 threads under both schemes.
func Fig12(p Params) (*Fig12Result, error) {
	lat := func(scheme kernel.Scheme, threads int) (sim.Time, error) {
		sys := p.newSystem(scheme, ssd.ZSSD)
		fio, err := workload.SetupFIO(sys, "fio.dat", p.datasetPages(), sys.FastFlags())
		if err != nil {
			return 0, err
		}
		// Fig. 12's configuration: every access is a cold miss.
		fio.Cold = true
		rs := workload.Run(sys, threadSet(sys, threads), fio,
			workload.RunOptions{OpsPerThread: p.OpsPerThread, WarmupOps: p.WarmupOps})
		return workload.Merge(rs).MeanLatency(), nil
	}
	res := &Fig12Result{}
	for _, n := range []int{1, 2, 4, 8} {
		o, err := lat(kernel.OSDP, n)
		if err != nil {
			return nil, err
		}
		h, err := lat(kernel.HWDP, n)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig12Row{
			Threads: n, OSDP: o, HWDP: h,
			Reduction: 1 - float64(h)/float64(o),
		})
	}
	return res, nil
}

// String renders the Fig12Result as the paper-style text table.
func (r *Fig12Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 12: FIO mmap 4KB random-read latency (Z-SSD)\n")
	b.WriteString("  threads   OSDP         HWDP         reduction\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %7d   %-11v  %-11v  %5.1f%%\n",
			row.Threads, row.OSDP, row.HWDP, 100*row.Reduction)
	}
	b.WriteString("  (paper: -37.0% at 1 thread, -27.0% at 8 threads)\n")
	return b.String()
}

// Fig17Row is one device profile of Figure 17.
type Fig17Row struct {
	Device     string
	DeviceTime sim.Time
	SWOnly     sim.Time
	HWDP       sim.Time
	Reduction  float64 // HWDP vs SW-only
}

// Fig17Result compares the software-only implementation against full
// hardware support across device generations.
type Fig17Result struct{ Rows []Fig17Row }

// Fig17 measures single-fault latency for SW-only and HWDP on Z-SSD,
// Optane SSD and Optane DC PMM.
func Fig17(p Params) (*Fig17Result, error) {
	single := func(scheme kernel.Scheme, dev ssd.Profile) (sim.Time, error) {
		cfg := core.DefaultConfig(scheme)
		cfg.MemoryBytes = p.memoryBytes()
		cfg.Device = dev
		cfg.DeviceJitter = false
		sys := cfg.Build()
		va, _, err := sys.MapFile("probe", 16, nil, sys.FastFlags())
		if err != nil {
			return 0, err
		}
		lat := sys.MeasureSingleFault(sys.WorkloadThread(0), va)
		return lat, nil
	}
	res := &Fig17Result{}
	for _, dev := range []ssd.Profile{ssd.ZSSD, ssd.OptaneSSD, ssd.OptaneDCPMM} {
		sw, err := single(kernel.SWDP, dev)
		if err != nil {
			return nil, err
		}
		hw, err := single(kernel.HWDP, dev)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig17Row{
			Device: dev.Name, DeviceTime: dev.Read4K, SWOnly: sw, HWDP: hw,
			Reduction: 1 - float64(hw)/float64(sw),
		})
	}
	return res, nil
}

// String renders the Fig17Result as the paper-style text table.
func (r *Fig17Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 17: software-only vs hardware support, single-fault latency\n")
	b.WriteString("  device          device-time   SW-only      HWDP         HWDP vs SW\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s  %-11v  %-11v  %-11v  -%.0f%%\n",
			row.Device, row.DeviceTime, row.SWOnly, row.HWDP, 100*row.Reduction)
	}
	b.WriteString("  (paper: -14% on Z-SSD, -44% on Optane DC PMM)\n")
	return b.String()
}

// KpooldResult is the Section IV-D ablation: synchronous-refill OS faults
// with and without the kpoold background refill thread.
type KpooldResult struct {
	BouncesWithout uint64
	BouncesWith    uint64
	Reduction      float64
	Ops            uint64
}

// KpooldAblation measures how many hardware misses bounce to the OS for
// lack of free pages, with kpoold on vs off.
func KpooldAblation(p Params) (*KpooldResult, error) {
	run := func(disable bool) (uint64, uint64, error) {
		cfg := core.DefaultConfig(kernel.HWDP)
		// The ablation needs the paper's scale relations: a free page queue
		// that is small relative to the reclaim watermarks (so refills are
		// never starved by kswapd) and a kpoold period comparable to the
		// queue's drain time at the offered miss rate. 32 MiB of memory
		// with a 256-entry queue and two FIO threads reproduces them.
		cfg.MemoryBytes = 32 << 20
		cfg.Seed = p.Seed
		cfg.FSBlocks = uint64(p.datasetPages())*4 + (1 << 16)
		cfg.Kernel.DisableKpoold = disable
		cfg.Kernel.KptedPeriod = 20 * sim.Millisecond
		cfg.FreeQueueDepth = 256
		cfg.Kernel.KpooldPeriod = 2750 * sim.Microsecond
		sys := cfg.Build()
		fio, err := workload.SetupFIO(sys, "fio.dat", p.datasetPages(), sys.FastFlags())
		if err != nil {
			return 0, 0, err
		}
		rs := workload.Run(sys, threadSet(sys, 2), fio,
			workload.RunOptions{OpsPerThread: p.OpsPerThread * 2})
		return sys.K.Stats().HWBounceFaults, workload.Merge(rs).Ops, nil
	}
	without, ops, err := run(true)
	if err != nil {
		return nil, err
	}
	with, _, err := run(false)
	if err != nil {
		return nil, err
	}
	r := &KpooldResult{BouncesWithout: without, BouncesWith: with, Ops: ops}
	if without > 0 {
		r.Reduction = 1 - float64(with)/float64(without)
	}
	return r, nil
}

// String renders the KpooldResult as the paper-style text table.
func (r *KpooldResult) String() string {
	return fmt.Sprintf("kpoold ablation (Section IV-D): OS-handled refill faults over %d ops\n"+
		"  without kpoold: %d   with kpoold: %d   reduction: %.1f%% (paper: 44.3-78.4%%)\n",
		r.Ops, r.BouncesWithout, r.BouncesWith, 100*r.Reduction)
}
