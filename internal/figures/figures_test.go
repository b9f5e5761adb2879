package figures

import (
	"strings"
	"testing"

	"hwdp/internal/sim"
	"hwdp/internal/smu"
	"hwdp/internal/ssd"
	"hwdp/internal/trace"
)

// The figure tests assert that each regenerated experiment reproduces the
// paper's *shape*: who wins, by roughly what factor, and in which
// direction trends move. Quick() parameters keep them unit-test fast.

func TestFig1TrendMoreFaultTimeWithLargerDatasets(t *testing.T) {
	r, err := Fig1(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].PageFaultFrac <= r.Rows[i-1].PageFaultFrac {
			t.Fatalf("fault fraction not increasing: %+v", r.Rows)
		}
		if r.Rows[i].Throughput >= r.Rows[i-1].Throughput {
			t.Fatalf("throughput not decreasing: %+v", r.Rows)
		}
	}
	for _, row := range r.Rows {
		if row.ComputeFrac < 0 || row.ComputeFrac > 1 {
			t.Fatalf("compute fraction out of range: %+v", row)
		}
	}
	if !strings.Contains(r.String(), "demand-paging") {
		t.Fatal("render")
	}
}

func TestFig2Trend(t *testing.T) {
	r := Fig2()
	// Modern ULL SSD: tens of thousands of cycles; 2005 disk: tens of
	// millions — the paper's framing.
	last := r.Rows[len(r.Rows)-1]
	if last.LatencyCycles < 1e4 || last.LatencyCycles > 1e5 {
		t.Fatalf("2019 cycles = %e", last.LatencyCycles)
	}
	disk := r.Rows[2]
	if disk.LatencyCycles < 1e7 {
		t.Fatalf("2005 disk cycles = %e", disk.LatencyCycles)
	}
	if !strings.Contains(r.String(), "2019") {
		t.Fatal("render")
	}
}

func TestFig3OverheadShare(t *testing.T) {
	r, err := Fig3(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: aggregated overhead 76.3% of device time.
	if r.OverheadFrac < 0.70 || r.OverheadFrac > 0.85 {
		t.Fatalf("overhead = %.3f of device time", r.OverheadFrac)
	}
	// The decomposition must account for the measured latency.
	if diff := (float64(r.Measured) - r.Breakdown.Total()*1e6) / float64(r.Measured); diff > 0.02 || diff < -0.02 {
		t.Fatalf("breakdown (%f us) vs measured (%v)", r.Breakdown.Total(), r.Measured)
	}
	if !strings.Contains(r.String(), "device I/O") {
		t.Fatal("render")
	}
}

func TestFig4FaultsHalveThroughput(t *testing.T) {
	r, err := Fig4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: OSDP has less than half the ideal throughput; our zipfian
	// scale gives ~0.55-0.65 — assert the qualitative collapse.
	if r.ThroughputNorm > 0.75 {
		t.Fatalf("throughput norm = %.2f, faults barely hurt", r.ThroughputNorm)
	}
	if r.IPCNorm >= 1 {
		t.Fatalf("IPC norm = %.2f, pollution missing", r.IPCNorm)
	}
	for name, v := range map[string]float64{
		"L1": r.L1Norm, "L2": r.L2Norm, "LLC": r.LLCNorm, "branch": r.BranchNorm,
	} {
		if v <= 1 {
			t.Fatalf("%s misses norm = %.2f, should rise with faults", name, v)
		}
	}
}

func TestFig11Reductions(t *testing.T) {
	r, err := Fig11(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: before-device -2.38us, after-device -6.16us.
	if b := r.BeforeReduction.Micros(); b < 2.0 || b > 2.8 {
		t.Fatalf("before reduction = %.2fus", b)
	}
	if a := r.AfterReduction.Micros(); a < 5.7 || a > 6.6 {
		t.Fatalf("after reduction = %.2fus", a)
	}
	if len(r.Timeline) < 6 {
		t.Fatalf("timeline phases = %d", len(r.Timeline))
	}
	// Command write dominates before-device (77.16ns).
	var cmdNS float64
	for _, sp := range r.Timeline {
		if sp.Name == "nvme-cmd-write" {
			cmdNS = sp.Dur().Nanos()
		}
	}
	if cmdNS < 77 || cmdNS > 78 {
		t.Fatalf("cmd write = %.2fns", cmdNS)
	}
}

func TestFig11TimelineMatchesSMUTiming(t *testing.T) {
	// Every Fig. 11(b) phase is one hardware step of the traced miss, so
	// its duration is exactly the SMU timing entry for that step, and the
	// phases come in critical-path order.
	r, err := Fig11(Quick())
	if err != nil {
		t.Fatal(err)
	}
	tm := smu.DefaultTiming()
	want := []struct {
		name string
		dur  sim.Time
	}{
		{"req-regs+cam", 2*tm.ReqRegWrite + tm.CAMLookup},
		{"free-page-fetch", tm.FreePageHit},
		{"pmshr-write", tm.PMSHRWrite},
		{"nvme-cmd-write", tm.CmdWrite},
		{"sq-doorbell", ssd.DoorbellWire},
		{"cq-handle", tm.CQHandle},
		{"pt-update", tm.PTUpdate},
		{"notify-mmu", tm.Notify},
	}
	if len(r.Timeline) != len(want) {
		t.Fatalf("timeline has %d phases, want %d: %v", len(r.Timeline), len(want), r.Timeline)
	}
	for i, w := range want {
		sp := r.Timeline[i]
		if sp.Name != w.name || sp.Dur() != w.dur {
			t.Errorf("phase %d = %s %dps, want %s %dps", i, sp.Name, sp.Dur(), w.name, w.dur)
		}
		if fig11Labels[sp.Name] == "" {
			t.Errorf("phase %s has no Fig. 11(b) label", sp.Name)
		}
	}
}

func TestFig12LatencyReductionBand(t *testing.T) {
	r, err := Fig12(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatal("rows")
	}
	one, eight := r.Rows[0], r.Rows[3]
	// Paper: 37.0% at 1 thread, 27.0% at 8.
	if one.Reduction < 0.32 || one.Reduction > 0.43 {
		t.Fatalf("1-thread reduction = %.3f", one.Reduction)
	}
	if eight.Reduction < 0.22 || eight.Reduction > 0.34 {
		t.Fatalf("8-thread reduction = %.3f", eight.Reduction)
	}
	if eight.Reduction >= one.Reduction {
		t.Fatal("reduction must shrink with parallelism")
	}
}

func TestFig13GainBands(t *testing.T) {
	r, err := Fig13(Quick(), []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	// FIO and DBBench: uniform access, big gains (paper 29.4–57.1%).
	for _, w := range []string{"FIO", "DBBench"} {
		for _, n := range []int{1, 4} {
			g := r.Gain(w, n)
			if g < 0.25 || g > 0.70 {
				t.Errorf("%s@%d gain = %.3f", w, n, g)
			}
		}
	}
	// YCSB: realistic patterns, smaller gains (paper 5.3–27.3%).
	for _, w := range []string{"YCSB-A", "YCSB-B", "YCSB-C", "YCSB-D", "YCSB-F"} {
		for _, n := range []int{1, 4} {
			g := r.Gain(w, n)
			if g < 0.03 || g > 0.33 {
				t.Errorf("%s@%d gain = %.3f", w, n, g)
			}
		}
	}
	// Write-heavy mixes gain less than read-only at the same threads.
	if r.Gain("YCSB-A", 4) >= r.Gain("YCSB-C", 4) {
		t.Errorf("A (%.3f) should gain less than C (%.3f)",
			r.Gain("YCSB-A", 4), r.Gain("YCSB-C", 4))
	}
	// Gains shrink with parallelism.
	if r.Gain("FIO", 4) >= r.Gain("FIO", 1) {
		t.Error("FIO gain should shrink with threads")
	}
}

func TestFig14IPCGain(t *testing.T) {
	r, err := Fig14(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: +7.0% user IPC, most misses down, 99.9% hardware-handled.
	if r.IPCGain < 0.04 || r.IPCGain > 0.12 {
		t.Fatalf("IPC gain = %.3f", r.IPCGain)
	}
	if r.ThroughputNorm <= 1.0 {
		t.Fatalf("throughput norm = %.3f", r.ThroughputNorm)
	}
	for name, v := range map[string]float64{
		"L1": r.L1Norm, "L2": r.L2Norm, "LLC": r.LLCNorm, "branch": r.BranchNorm,
	} {
		if v >= 1 {
			t.Errorf("%s miss norm = %.3f, should fall under HWDP", name, v)
		}
	}
	if r.HWHandledFrac < 0.99 {
		t.Fatalf("hardware-handled fraction = %.4f", r.HWHandledFrac)
	}
}

func TestFig15KernelReduction(t *testing.T) {
	r, err := Fig15(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 62.6% fewer kernel instructions (HWDP includes kpted/kpoold).
	if r.InstrReduction < 0.50 || r.InstrReduction > 0.75 {
		t.Fatalf("instr reduction = %.3f", r.InstrReduction)
	}
	if r.CycleReduction < 0.50 || r.CycleReduction > 0.75 {
		t.Fatalf("cycle reduction = %.3f", r.CycleReduction)
	}
	// HWDP moves kernel work into the background threads.
	if r.HWDPBgInstr == 0 {
		t.Fatal("kpted/kpoold did no work under HWDP")
	}
	if r.HWDPAppInstr >= r.OSDPAppInstr {
		t.Fatal("app-thread kernel work did not fall")
	}
}

func TestFig16SMTCoScheduling(t *testing.T) {
	r, err := Fig16(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatal("rows")
	}
	for _, row := range r.Rows {
		// Paper: FIO >1.72x faster; our model lands ~1.6-1.75x.
		if row.FIOGain < 1.45 || row.FIOGain > 1.95 {
			t.Errorf("%s: FIO gain = %.2f", row.Kernel, row.FIOGain)
		}
		// FIO executes fewer total instructions under HWDP.
		if row.FIOInstrRatio >= 1 {
			t.Errorf("%s: FIO instr ratio = %.2f", row.Kernel, row.FIOInstrRatio)
		}
		// The co-running compute thread gets more issue slots.
		if row.SPECIPCGain <= 0 {
			t.Errorf("%s: SPEC IPC gain = %.3f", row.Kernel, row.SPECIPCGain)
		}
	}
}

func TestFig17DeviceScaling(t *testing.T) {
	r, err := Fig17(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatal("rows")
	}
	// Paper: -14% on Z-SSD, -44% on Optane DC PMM; benefit grows as the
	// device gets faster.
	z, pmm := r.Rows[0], r.Rows[2]
	if z.Reduction < 0.10 || z.Reduction > 0.20 {
		t.Fatalf("Z-SSD reduction = %.3f", z.Reduction)
	}
	if pmm.Reduction < 0.38 || pmm.Reduction > 0.52 {
		t.Fatalf("PMM reduction = %.3f", pmm.Reduction)
	}
	for i := 1; i < 3; i++ {
		if r.Rows[i].Reduction <= r.Rows[i-1].Reduction {
			t.Fatal("hardware benefit must grow as devices get faster")
		}
	}
}

func TestKpooldAblationBand(t *testing.T) {
	r, err := KpooldAblation(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 44.3–78.4% fewer synchronous-refill faults.
	if r.BouncesWithout == 0 {
		t.Fatal("ablation produced no bounces to reduce")
	}
	if r.Reduction < 0.35 || r.Reduction > 0.98 {
		t.Fatalf("reduction = %.3f", r.Reduction)
	}
}

func TestTablesRender(t *testing.T) {
	ti := TableI()
	for _, want := range []string{"LBA", "hardware", "kpted"} {
		if !strings.Contains(ti, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
	tii := TableII(Quick())
	if !strings.Contains(tii, "Z-SSD") || !strings.Contains(tii, "2.8GHz") {
		t.Errorf("Table II render:\n%s", tii)
	}
	at := AreaTable()
	if !strings.Contains(at, "PMSHR") || !strings.Contains(at, "0.004") {
		t.Errorf("area table render:\n%s", at)
	}
}

func TestAblationPMSHR(t *testing.T) {
	r, err := AblationPMSHR(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatal("rows")
	}
	// Tiny PMSHRs must backlog and lose throughput; the curve saturates by
	// the prototype's 32 entries.
	if r.Rows[0].Backlogged == 0 {
		t.Fatal("2-entry PMSHR did not backlog")
	}
	if r.Rows[0].Throughput >= r.Rows[3].Throughput {
		t.Fatalf("throughput not rising with PMSHR size: %+v", r.Rows)
	}
	sat32 := r.Rows[4].Throughput
	sat64 := r.Rows[5].Throughput
	if diff := (sat64 - sat32) / sat32; diff > 0.02 || diff < -0.02 {
		t.Fatalf("no saturation at 32 entries: 32→%f 64→%f", sat32, sat64)
	}
}

func TestAblationDeviceSweep(t *testing.T) {
	r, err := AblationDeviceSweep(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Reduction <= r.Rows[i-1].Reduction {
			t.Fatal("HWDP benefit must grow with faster devices")
		}
		if r.Rows[i].OverheadOfDev <= r.Rows[i-1].OverheadOfDev {
			t.Fatal("relative OS overhead must grow with faster devices")
		}
	}
	// On Optane DC PMM the OS overhead exceeds the device time itself
	// several times over — the paper's core motivation.
	if last := r.Rows[len(r.Rows)-1]; last.OverheadOfDev < 2 {
		t.Fatalf("PMM overhead/device = %.2f", last.OverheadOfDev)
	}
}

func TestAblationPrefetch(t *testing.T) {
	r, err := AblationPrefetch(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatal("rows")
	}
	// Sequential: latency must fall monotonically with degree.
	if !(r.Rows[2].MeanLat < r.Rows[1].MeanLat && r.Rows[1].MeanLat < r.Rows[0].MeanLat) {
		t.Fatalf("sequential prefetch not helping: %+v", r.Rows[:3])
	}
	// Degree 4 should at least halve the sequential miss latency.
	if float64(r.Rows[2].MeanLat) > 0.6*float64(r.Rows[0].MeanLat) {
		t.Fatalf("degree-4 sequential latency %v vs baseline %v", r.Rows[2].MeanLat, r.Rows[0].MeanLat)
	}
	// Random: benefit must be far smaller than sequential's.
	seqGain := float64(r.Rows[0].MeanLat) / float64(r.Rows[2].MeanLat)
	rndGain := float64(r.Rows[3].MeanLat) / float64(r.Rows[5].MeanLat)
	if rndGain > seqGain*0.75 {
		t.Fatalf("random gain %.2f too close to sequential %.2f", rndGain, seqGain)
	}
	if r.Rows[0].Prefetches != 0 || r.Rows[1].Prefetches == 0 {
		t.Fatalf("prefetch counts wrong: %+v", r.Rows)
	}
}

func TestResultRenders(t *testing.T) {
	// Exercise every String() with hand-built values (no experiment runs).
	f1 := &Fig1Result{Rows: []Fig1Row{{Ratio: 2, Throughput: 1000, ComputeFrac: 0.6, PageFaultFrac: 0.4}}}
	f11 := &Fig11Result{Timeline: []trace.Span{{Layer: trace.LayerSMU, Name: "pt-update", End: 97 * 357}}}
	f12 := &Fig12Result{Rows: []Fig12Row{{Threads: 1, OSDP: 1000, HWDP: 600, Reduction: 0.4}}}
	f13 := &Fig13Result{Cells: []Fig13Cell{{Workload: "FIO", Threads: 1, OSDP: 1, HWDP: 2, Gain: 1}}}
	f14 := &Fig14Result{ThroughputNorm: 1.2, IPCGain: 0.07}
	f15 := &Fig15Result{InstrReduction: 0.626}
	f16 := &Fig16Result{Rows: []Fig16Row{{Kernel: "mcf-like", FIOGain: 1.7}}}
	f17 := &Fig17Result{Rows: []Fig17Row{{Device: "Z-SSD", Reduction: 0.14}}}
	kp := &KpooldResult{BouncesWithout: 100, BouncesWith: 40, Reduction: 0.6, Ops: 1000}
	pm := &PMSHRResult{Rows: []PMSHRRow{{Entries: 32, Throughput: 1}}}
	dv := &DeviceSweepResult{Rows: []DeviceSweepRow{{Device: "Z-SSD"}}}
	pf := &PrefetchResult{Rows: []PrefetchRow{{Pattern: "sequential", Degree: 4}}}
	for i, str := range []string{
		f1.String(), f11.String(), f12.String(), f13.String(), f14.String(),
		f15.String(), f16.String(), f17.String(), kp.String(), pm.String(),
		dv.String(), pf.String(),
	} {
		if len(str) < 20 {
			t.Errorf("render %d too short: %q", i, str)
		}
	}
	if f13.Gain("nope", 9) != -1 {
		t.Error("missing cell should be -1")
	}
}
