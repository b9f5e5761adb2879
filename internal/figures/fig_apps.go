package figures

import (
	"fmt"
	"strings"

	"hwdp/internal/cpu"
	"hwdp/internal/kernel"
	"hwdp/internal/sim"
	"hwdp/internal/workload"
)

// Fig13Cell is one (workload, threads) point.
type Fig13Cell struct {
	Workload string
	Threads  int
	OSDP     float64 // ops/s
	HWDP     float64
	Gain     float64 // HWDP/OSDP - 1
}

// Fig13Result is the throughput-improvement matrix.
type Fig13Result struct {
	Cells []Fig13Cell
}

// Fig13Workloads is the workload set of Figure 13.
var Fig13Workloads = []string{"FIO", "DBBench", "YCSB-A", "YCSB-B", "YCSB-C", "YCSB-D", "YCSB-E", "YCSB-F"}

// fig13Threads resolves the -threads restriction: nil means the paper's
// full 1..8 sweep.
func fig13Threads(threads []int) []int {
	if len(threads) == 0 {
		return []int{1, 2, 4, 8}
	}
	return threads
}

// Fig13 sweeps workloads × thread counts × schemes and reports HWDP's
// throughput gain over OSDP.
func Fig13(p Params, threads []int) (*Fig13Result, error) {
	res := &Fig13Result{}
	for _, name := range Fig13Workloads {
		cells, err := fig13Workload(p, name, fig13Threads(threads))
		if err != nil {
			return nil, err
		}
		res.Cells = append(res.Cells, cells...)
	}
	return res, nil
}

// fig13Workload runs one workload's thread sweep under both schemes.
// Each cell builds its own System from p, so shards share no state: the
// sweep scheduler runs one unit per workload in parallel and concatenates
// the row blocks back into the exact sequential table.
func fig13Workload(p Params, name string, threads []int) ([]Fig13Cell, error) {
	run := func(name string, scheme kernel.Scheme, n int) (float64, error) {
		sys := p.config(scheme).Build()
		opt := workload.RunOptions{OpsPerThread: p.OpsPerThread, WarmupOps: p.WarmupOps}
		var w workload.Workload
		switch name {
		case "FIO":
			fio, err := workload.SetupFIO(sys, "fio.dat", p.datasetPages(), sys.FastFlags())
			if err != nil {
				return 0, err
			}
			w = fio
		case "DBBench":
			st, err := buildKV(sys, p)
			if err != nil {
				return 0, err
			}
			w = workload.NewDBBenchReadRandom(sys, st)
		default: // "YCSB-X"
			st, err := buildKV(sys, p)
			if err != nil {
				return 0, err
			}
			y, err := workload.NewYCSB(sys, st, name[len(name)-1])
			if err != nil {
				return 0, err
			}
			if name == "YCSB-E" {
				opt.OpsPerThread /= 4 // scans touch many records per op
			}
			w = y
		}
		rs := workload.Run(sys, threadSet(sys, n), w, opt)
		m := workload.Merge(rs)
		if m.Errors > 0 {
			return 0, fmt.Errorf("figures: %d corrupt reads in %s", m.Errors, name)
		}
		return m.Throughput(), nil
	}
	var cells []Fig13Cell
	for _, n := range threads {
		o, err := run(name, kernel.OSDP, n)
		if err != nil {
			return nil, err
		}
		h, err := run(name, kernel.HWDP, n)
		if err != nil {
			return nil, err
		}
		cells = append(cells, Fig13Cell{
			Workload: name, Threads: n, OSDP: o, HWDP: h, Gain: h/o - 1,
		})
	}
	return cells, nil
}

// Gain returns the gain for one (workload, threads) cell, or -1.
func (r *Fig13Result) Gain(name string, threads int) float64 {
	for _, c := range r.Cells {
		if c.Workload == name && c.Threads == threads {
			return c.Gain
		}
	}
	return -1
}

// The table is rendered in three pieces so the sweep shards (one unit per
// workload) can emit their row blocks independently and still concatenate
// to the byte-identical sequential table.
const (
	fig13Header = "Figure 13: HWDP throughput improvement over OSDP (Z-SSD, 2:1 dataset:memory)\n" +
		"  workload   threads   OSDP(op/s)    HWDP(op/s)    gain\n"
	fig13Footer = "  (paper: FIO/DBBench +29.4%..+57.1%, YCSB +5.3%..+27.3%)\n"
)

// fig13Rows renders a block of cells as table rows.
func fig13Rows(cells []Fig13Cell) string {
	var b strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&b, "  %-9s  %7d   %11.0f   %11.0f   %+5.1f%%\n",
			c.Workload, c.Threads, c.OSDP, c.HWDP, 100*c.Gain)
	}
	return b.String()
}

// String renders the Fig13Result as the paper-style text table.
func (r *Fig13Result) String() string {
	return fig13Header + fig13Rows(r.Cells) + fig13Footer
}

// Fig14Result is the YCSB-C 4-thread architectural comparison.
type Fig14Result struct {
	ThroughputNorm float64 // HWDP / OSDP
	IPCOSDP        float64
	IPCHWDP        float64
	IPCGain        float64
	L1Norm         float64 // HWDP misses per user instr / OSDP
	L2Norm         float64
	LLCNorm        float64
	BranchNorm     float64
	HWHandledFrac  float64 // fraction of misses handled in hardware
}

// Fig14 runs YCSB-C with 4 threads under both schemes and compares
// throughput, user-level IPC and miss events.
func Fig14(p Params) (*Fig14Result, error) {
	const threads = 4
	run := func(scheme kernel.Scheme) (float64, microRates, float64, error) {
		sys := p.config(scheme).Build()
		m, err := runYCSB(sys, p, 'C', threads)
		if err != nil {
			return 0, microRates{}, 0, err
		}
		mmuSt := sys.MMU.Stats()
		hwFrac := 0.0
		if tot := mmuSt.HWMisses + mmuSt.OSFaults; tot > 0 {
			hwFrac = float64(mmuSt.HWMisses-mmuSt.HWBounced) / float64(tot)
		}
		return m.Throughput(), userMicro(sys, threads), hwFrac, nil
	}
	osT, osM, _, err := run(kernel.OSDP)
	if err != nil {
		return nil, err
	}
	hwT, hwM, hwFrac, err := run(kernel.HWDP)
	if err != nil {
		return nil, err
	}
	return &Fig14Result{
		ThroughputNorm: hwT / osT,
		IPCOSDP:        osM.ipc,
		IPCHWDP:        hwM.ipc,
		IPCGain:        hwM.ipc/osM.ipc - 1,
		L1Norm:         hwM.l1 / osM.l1,
		L2Norm:         hwM.l2 / osM.l2,
		LLCNorm:        hwM.llc / osM.llc,
		BranchNorm:     hwM.br / osM.br,
		HWHandledFrac:  hwFrac,
	}, nil
}

// String renders the Fig14Result as the paper-style text table.
func (r *Fig14Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 14: YCSB-C, 4 threads — HWDP normalized to OSDP\n")
	fmt.Fprintf(&b, "  (a) throughput: %.2fx\n", r.ThroughputNorm)
	fmt.Fprintf(&b, "  (b) user IPC: %.3f -> %.3f (+%.1f%%, paper: +7.0%%)\n",
		r.IPCOSDP, r.IPCHWDP, 100*r.IPCGain)
	fmt.Fprintf(&b, "      miss events (per user instr, normalized): L1 %.2f  L2 %.2f  LLC %.2f  branch %.2f\n",
		r.L1Norm, r.L2Norm, r.LLCNorm, r.BranchNorm)
	fmt.Fprintf(&b, "      page misses handled in hardware: %.1f%% (paper: 99.9%%)\n",
		100*r.HWHandledFrac)
	return b.String()
}

// Fig15Result is the kernel-cost comparison (retired kernel instructions
// and cycles, including kpted/kpoold).
type Fig15Result struct {
	// Per scheme: app-thread kernel work plus background threads.
	OSDPAppInstr, OSDPBgInstr uint64
	HWDPAppInstr, HWDPBgInstr uint64
	OSDPKCycles, HWDPKCycles  int64
	InstrReduction            float64
	CycleReduction            float64
}

// Fig15 reuses the Fig. 14 setup and accounts kernel instructions/cycles
// by context.
func Fig15(p Params) (*Fig15Result, error) {
	const threads = 4
	run := func(scheme kernel.Scheme) (app cpu.Counters, bg cpu.Counters, err error) {
		sys := p.config(scheme).Build()
		if _, err = runYCSB(sys, p, 'C', threads); err != nil {
			return
		}
		for i := 0; i < threads; i++ {
			app.Add(sys.CPU.Thread(2 * i).Counters)
		}
		n := sys.Cfg.Cores * 2
		for _, id := range []int{n - 1, n - 3, n - 5} { // kpted, kpoold, kswapd
			bg.Add(sys.CPU.Thread(id).Counters)
		}
		return
	}
	osApp, osBg, err := run(kernel.OSDP)
	if err != nil {
		return nil, err
	}
	hwApp, hwBg, err := run(kernel.HWDP)
	if err != nil {
		return nil, err
	}
	r := &Fig15Result{
		OSDPAppInstr: osApp.KernelInstr, OSDPBgInstr: osBg.KernelInstr,
		HWDPAppInstr: hwApp.KernelInstr, HWDPBgInstr: hwBg.KernelInstr,
		OSDPKCycles: (osApp.KernelTime + osBg.KernelTime).ToCycles(),
		HWDPKCycles: (hwApp.KernelTime + hwBg.KernelTime).ToCycles(),
	}
	osTot := float64(r.OSDPAppInstr + r.OSDPBgInstr)
	hwTot := float64(r.HWDPAppInstr + r.HWDPBgInstr)
	r.InstrReduction = 1 - hwTot/osTot
	r.CycleReduction = 1 - float64(r.HWDPKCycles)/float64(r.OSDPKCycles)
	return r, nil
}

// String renders the Fig15Result as the paper-style text table.
func (r *Fig15Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 15: kernel-level retired instructions and cycles (YCSB-C, 4 threads)\n")
	b.WriteString("  scheme   kernel-in-app-threads   kpted/kpoold/kswapd   kernel cycles\n")
	fmt.Fprintf(&b, "  OSDP     %21d   %19d   %d\n", r.OSDPAppInstr, r.OSDPBgInstr, r.OSDPKCycles)
	fmt.Fprintf(&b, "  HWDP     %21d   %19d   %d\n", r.HWDPAppInstr, r.HWDPBgInstr, r.HWDPKCycles)
	fmt.Fprintf(&b, "  reduction: instructions %.1f%%, cycles %.1f%% (paper: 62.6%% instructions)\n",
		100*r.InstrReduction, 100*r.CycleReduction)
	return b.String()
}

// Fig16Row is one SPEC co-runner of the SMT experiment.
type Fig16Row struct {
	Kernel        string
	FIOGain       float64 // FIO throughput, HWDP / OSDP
	FIOInstrRatio float64 // FIO total (user+kernel) instructions, HWDP / OSDP
	SPECIPCOSDP   float64
	SPECIPCHWDP   float64
	SPECIPCGain   float64
}

// Fig16Result is the SMT co-scheduling experiment.
type Fig16Result struct{ Rows []Fig16Row }

// Fig16 pins an FIO thread and a compute kernel onto the two hardware
// threads of one physical core and compares schemes.
func Fig16(p Params) (*Fig16Result, error) {
	dur := 40 * sim.Millisecond
	run := func(scheme kernel.Scheme, spec *workload.Compute) (fioOps float64, fioInstr uint64, specIPC float64, err error) {
		sys := p.config(scheme).Build()
		fio, err := workload.SetupFIO(sys, "fio.dat", p.datasetPages(), sys.FastFlags())
		if err != nil {
			return 0, 0, 0, err
		}
		spec.Sys = sys
		a, b := sys.SMTPair(0)
		rs := workload.RunMixed(sys, []workload.Assignment{
			{Th: a, W: fio},
			{Th: b, W: spec},
		}, workload.RunOptions{Duration: dur})
		fioC := sys.CPU.Thread(0).Counters
		specC := sys.CPU.Thread(1).Counters
		return rs[0].Throughput(), fioC.UserInstr + fioC.KernelInstr, specC.UserIPC(), nil
	}
	res := &Fig16Result{}
	for _, spec := range workload.SPECKernels(nil) {
		osOps, osInstr, osIPC, err := run(kernel.OSDP, spec)
		if err != nil {
			return nil, err
		}
		hwOps, hwInstr, hwIPC, err := run(kernel.HWDP, spec)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig16Row{
			Kernel:        spec.Name,
			FIOGain:       hwOps / osOps,
			FIOInstrRatio: float64(hwInstr) / float64(osInstr),
			SPECIPCOSDP:   osIPC,
			SPECIPCHWDP:   hwIPC,
			SPECIPCGain:   hwIPC/osIPC - 1,
		})
	}
	return res, nil
}

// String renders the Fig16Result as the paper-style text table.
func (r *Fig16Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 16: SMT co-scheduling — FIO + compute kernel on one physical core\n")
	b.WriteString("  co-runner   FIO speedup   FIO instr ratio   SPEC IPC (OSDP→HWDP)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-9s   %9.2fx   %15.2f   %.2f → %.2f (+%.1f%%)\n",
			row.Kernel, row.FIOGain, row.FIOInstrRatio,
			row.SPECIPCOSDP, row.SPECIPCHWDP, 100*row.SPECIPCGain)
	}
	b.WriteString("  (paper: FIO ≥1.72x, FIO instructions down ≤42.4%, SPEC IPC up)\n")
	return b.String()
}
