package figures

import (
	"fmt"
	"strings"

	"hwdp/internal/core"
	"hwdp/internal/cpu"
	"hwdp/internal/kernel"
	"hwdp/internal/kvs"
	"hwdp/internal/metrics"
	"hwdp/internal/sim"
	"hwdp/internal/ssd"
	"hwdp/internal/workload"
)

// Fig1Row is one dataset:memory ratio of Figure 1.
type Fig1Row struct {
	Ratio         float64
	Throughput    float64
	ComputeFrac   float64 // fraction of thread time in user compute
	PageFaultFrac float64 // fraction in demand paging (faults, stalls, waits)
}

// Fig1Result is Figure 1: YCSB-C execution-time breakdown under OSDP as
// the dataset outgrows memory.
type Fig1Result struct{ Rows []Fig1Row }

// Fig1 runs YCSB-C at several dataset:memory ratios.
func Fig1(p Params) (*Fig1Result, error) {
	const threads = 4
	res := &Fig1Result{}
	for _, ratio := range []float64{0.5, 1, 2, 4} {
		pr := p
		pr.DatasetRatio = ratio
		// No warmup: the CPU counters cover the whole run, so the time
		// split is exact (and the cold-start faults are part of Figure 1's
		// story at ratios below 1).
		pr.OpsPerThread += pr.WarmupOps
		pr.WarmupOps = 0
		sys := pr.newSystem(kernel.OSDP, ssd.ZSSD)
		m, err := runYCSB(sys, pr, 'C', threads)
		if err != nil {
			return nil, err
		}
		var user, total sim.Time
		for i := 0; i < threads; i++ {
			c := sys.CPU.Thread(2 * i).Counters
			user += c.UserTime
			total += m.Elapsed
		}
		row := Fig1Row{
			Ratio:         ratio,
			Throughput:    m.Throughput(),
			ComputeFrac:   float64(user) / float64(total),
			PageFaultFrac: 1 - float64(user)/float64(total),
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the Fig1Result as the paper-style text table.
func (r *Fig1Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 1: YCSB-C execution time breakdown vs dataset:memory ratio (OSDP)\n")
	b.WriteString("  ratio   throughput(op/s)   compute%   demand-paging%\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %4.1f:1  %16.0f   %7.1f%%   %13.1f%%\n",
			row.Ratio, row.Throughput, 100*row.ComputeFrac, 100*row.PageFaultFrac)
	}
	return b.String()
}

// Fig2Row is one era of the CPU-vs-storage trend (Figure 2; background
// data from public specifications, not simulated).
type Fig2Row struct {
	Year          int
	CPUMHz        float64
	Storage       string
	ReadLatency   sim.Time
	LatencyCycles float64
}

// Fig2Result is the performance-trend table.
type Fig2Result struct{ Rows []Fig2Row }

// Fig2 returns the historical series behind Figure 2.
func Fig2() *Fig2Result {
	rows := []Fig2Row{
		{1985, 8, "HDD (ST-506 class)", 80 * sim.Millisecond, 0},
		{1995, 133, "HDD", 12 * sim.Millisecond, 0},
		{2005, 3200, "HDD (7200rpm)", 8 * sim.Millisecond, 0},
		{2010, 3300, "SATA SSD", 120 * sim.Microsecond, 0},
		{2015, 3500, "NVMe SSD", 80 * sim.Microsecond, 0},
		{2019, 4000, "ultra-low-latency SSD", sim.Micro(10.9), 0},
	}
	for i := range rows {
		rows[i].LatencyCycles = rows[i].ReadLatency.Seconds() * rows[i].CPUMHz * 1e6
	}
	return &Fig2Result{Rows: rows}
}

// String renders the Fig2Result as the paper-style text table.
func (r *Fig2Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 2: CPU vs storage performance trend (public specs)\n")
	b.WriteString("  year   CPU clock   storage                 read latency   latency in cycles\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %d  %7.0f MHz  %-22s %12v   %17.2e\n",
			row.Year, row.CPUMHz, row.Storage, row.ReadLatency, row.LatencyCycles)
	}
	return b.String()
}

// Fig3Result is Figure 3: the single OSDP page-fault latency breakdown.
type Fig3Result struct {
	Breakdown    *metrics.Breakdown
	DeviceTime   sim.Time
	Total        sim.Time
	OverheadFrac float64 // overhead / device time
	Measured     sim.Time
}

// Fig3 measures one OSDP fault end-to-end and decomposes it.
func Fig3(p Params) (*Fig3Result, error) {
	sys := p.newSystem(kernel.OSDP, ssd.ZSSD)
	sys.Cfg.DeviceJitter = false
	// Use a jitter-free machine for the exact single-fault measurement.
	cfg := sys.Cfg
	cfg.DeviceJitter = false
	sys = cfg.Build()
	va, _, err := sys.MapFile("probe", 16, nil, kernel.MmapFlags{})
	if err != nil {
		return nil, err
	}
	measured := sys.MeasureSingleFault(sys.WorkloadThread(0), va)

	c := sys.K.Config().Costs
	dev := sys.Cfg.Device.Read4K
	bd := &metrics.Breakdown{Unit: "us"}
	bd.Add("exception entry", c.Exception.Micros())
	bd.Add("page table walk", (c.WalkInFault + sys.MMU.WalkLatency).Micros())
	bd.Add("fault handler entry (VMA)", c.HandlerEntry.Micros())
	bd.Add("page allocation", c.PageAlloc.Micros())
	bd.Add("I/O submission (block layer)", c.IOSubmit.Micros())
	bd.Add("device I/O", dev.Micros())
	bd.Add("interrupt delivery", c.InterruptDelivery.Micros())
	bd.Add("I/O completion", c.IOCompletion.Micros())
	bd.Add("context switch (wake+schedule)", c.WakeSchedule.Micros())
	bd.Add("OS metadata update (LRU,rmap)", c.MetadataUpdate.Micros())
	bd.Add("PTE install + return", c.PTEInstallReturn.Micros())
	over := c.OSDPOverhead()
	return &Fig3Result{
		Breakdown:    bd,
		DeviceTime:   dev,
		Total:        over + dev,
		OverheadFrac: float64(over) / float64(dev),
		Measured:     measured,
	}, nil
}

// String renders the Fig3Result as the paper-style text table.
func (r *Fig3Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 3: single OSDP page-fault latency breakdown (Z-SSD)\n")
	b.WriteString(r.Breakdown.String())
	fmt.Fprintf(&b, "  aggregated OS overhead = %.1f%% of device time (paper: 76.3%%)\n",
		100*r.OverheadFrac)
	fmt.Fprintf(&b, "  measured end-to-end fault latency: %v\n", r.Measured)
	return b.String()
}

// Fig4Result is Figure 4: ideal (no faults) vs OSDP on a memory-resident
// YCSB-C dataset.
type Fig4Result struct {
	IdealThroughput float64
	OSDPThroughput  float64
	ThroughputNorm  float64 // OSDP / ideal
	IPCNorm         float64 // OSDP user IPC / ideal user IPC
	L1Norm          float64 // misses per user instruction, OSDP / ideal
	L2Norm          float64
	LLCNorm         float64
	BranchNorm      float64
}

type microRates struct {
	ipc, l1, l2, llc, br float64
}

func userMicro(sys *core.System, threads int) microRates {
	var c cpu.Counters
	for i := 0; i < threads; i++ {
		c.Add(sys.CPU.Thread(2 * i).Counters)
	}
	per := 1 / float64(c.UserInstr)
	return microRates{
		ipc: c.UserIPC(),
		l1:  float64(c.L1Miss) * per,
		l2:  float64(c.L2Miss) * per,
		llc: float64(c.LLCMiss) * per,
		br:  float64(c.BranchMiss) * per,
	}
}

// Fig4 compares preloaded vs cold YCSB-C with the dataset sized to fit in
// memory; the access footprint (ops × record) exceeds the dataset, so
// cold-start faults dominate OSDP's run.
func Fig4(p Params) (*Fig4Result, error) {
	const threads = 4
	pr := p
	pr.DatasetRatio = 0.7 // fits in memory with room for the kernel
	// One dataset's worth of record accesses: under the zipfian mix a large
	// share of OSDP's ops are first-touch faults, the regime Figure 4
	// contrasts with the preloaded ideal.
	pr.OpsPerThread = pr.datasetPages() / threads
	pr.WarmupOps = 0

	run := func(populate bool) (workload.Result, microRates, error) {
		sys := pr.newSystem(kernel.OSDP, ssd.ZSSD)
		flags := sys.FastFlags()
		flags.Populate = populate
		st, err := kvs.Create(sys.K, sys.FS, sys.Proc, "rocksdb.sst",
			uint64(pr.datasetPages()), 0, 0, flags)
		if err != nil {
			return workload.Result{}, microRates{}, err
		}
		w, err := workload.NewYCSB(sys, st, 'C')
		if err != nil {
			return workload.Result{}, microRates{}, err
		}
		rs := workload.Run(sys, threadSet(sys, threads), w,
			workload.RunOptions{OpsPerThread: pr.OpsPerThread})
		m := workload.Merge(rs)
		if m.Errors > 0 {
			return m, microRates{}, fmt.Errorf("figures: %d corrupt reads", m.Errors)
		}
		return m, userMicro(sys, threads), nil
	}

	ideal, idealMicro, err := run(true)
	if err != nil {
		return nil, err
	}
	osdp, osdpMicro, err := run(false)
	if err != nil {
		return nil, err
	}
	return &Fig4Result{
		IdealThroughput: ideal.Throughput(),
		OSDPThroughput:  osdp.Throughput(),
		ThroughputNorm:  osdp.Throughput() / ideal.Throughput(),
		IPCNorm:         osdpMicro.ipc / idealMicro.ipc,
		L1Norm:          osdpMicro.l1 / idealMicro.l1,
		L2Norm:          osdpMicro.l2 / idealMicro.l2,
		LLCNorm:         osdpMicro.llc / idealMicro.llc,
		BranchNorm:      osdpMicro.br / idealMicro.br,
	}, nil
}

// String renders the Fig4Result as the paper-style text table.
func (r *Fig4Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 4: page-fault impact on YCSB-C (dataset fits in memory)\n")
	fmt.Fprintf(&b, "  (a) throughput: ideal %.0f op/s, OSDP %.0f op/s → normalized %.2f (paper: < 0.5)\n",
		r.IdealThroughput, r.OSDPThroughput, r.ThroughputNorm)
	fmt.Fprintf(&b, "  (b) user-level, OSDP normalized to ideal:\n")
	fmt.Fprintf(&b, "      IPC %.2f | L1 misses %.2f | L2 misses %.2f | LLC misses %.2f | branch misses %.2f\n",
		r.IPCNorm, r.L1Norm, r.L2Norm, r.LLCNorm, r.BranchNorm)
	return b.String()
}
