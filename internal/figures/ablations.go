package figures

import (
	"fmt"
	"strings"

	"hwdp/internal/core"
	"hwdp/internal/kernel"
	"hwdp/internal/sim"
	"hwdp/internal/ssd"
	"hwdp/internal/workload"
)

// PMSHRRow is one PMSHR size of the design-space sweep.
type PMSHRRow struct {
	Entries    int
	Throughput float64
	MeanLat    sim.Time
	Backlogged uint64 // misses that waited for a PMSHR slot
	Coalesced  uint64
}

// PMSHRResult sweeps the PMSHR size — the structure whose 32 entries the
// prototype "empirically chooses" and which bounds the SMU's concurrent
// outstanding I/O.
type PMSHRResult struct{ Rows []PMSHRRow }

// AblationPMSHR runs 8-thread cold FIO at several PMSHR sizes.
func AblationPMSHR(p Params) (*PMSHRResult, error) {
	res := &PMSHRResult{}
	for _, entries := range []int{2, 4, 8, 16, 32, 64} {
		cfg := core.DefaultConfig(kernel.HWDP)
		cfg.MemoryBytes = p.memoryBytes()
		cfg.Seed = p.Seed
		cfg.FSBlocks = uint64(p.datasetPages())*4 + (1 << 16)
		cfg.PMSHREntries = entries
		cfg.Kernel.KptedPeriod = sim.Time(p.MemoryMB) * 600 * sim.Microsecond
		sys := cfg.Build()
		fio, err := workload.SetupFIO(sys, "fio.dat", p.datasetPages(), sys.FastFlags())
		if err != nil {
			return nil, err
		}
		fio.Cold = true
		rs := workload.Run(sys, threadSet(sys, 8), fio,
			workload.RunOptions{OpsPerThread: p.OpsPerThread / 2, WarmupOps: p.WarmupOps / 2})
		m := workload.Merge(rs)
		st := sys.SMUs[0].Stats()
		res.Rows = append(res.Rows, PMSHRRow{
			Entries:    entries,
			Throughput: m.Throughput(),
			MeanLat:    m.MeanLatency(),
			Backlogged: st.Backlogged,
			Coalesced:  st.Coalesced,
		})
	}
	return res, nil
}

// String renders the PMSHRResult as the paper-style text table.
func (r *PMSHRResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: PMSHR size (8-thread cold FIO; prototype picks 32)\n")
	b.WriteString("  entries   throughput(op/s)   mean latency   backlogged   coalesced\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %7d   %16.0f   %12v   %10d   %9d\n",
			row.Entries, row.Throughput, row.MeanLat, row.Backlogged, row.Coalesced)
	}
	b.WriteString("  (tiny PMSHRs serialize misses in the backlog; ≥32 entries stop helping,\n")
	b.WriteString("   matching the paper's empirical choice)\n")
	return b.String()
}

// DeviceSweepRow is one device profile of the latency sweep.
type DeviceSweepRow struct {
	Device         string
	OSDP, HWDP     sim.Time
	Reduction      float64
	OverheadOfDev  float64 // OSDP overhead as a fraction of device time
	HWShareOfTotal float64 // SMU hardware time as a fraction of HWDP latency
}

// DeviceSweepResult extends Fig. 17's argument: as devices get faster the
// OS overhead fraction explodes and hardware handling matters more.
type DeviceSweepResult struct{ Rows []DeviceSweepRow }

// AblationDeviceSweep measures single-fault latency under OSDP and HWDP
// across the three device generations.
func AblationDeviceSweep(p Params) (*DeviceSweepResult, error) {
	res := &DeviceSweepResult{}
	for _, dev := range []ssd.Profile{ssd.ZSSD, ssd.OptaneSSD, ssd.OptaneDCPMM} {
		var lats [2]sim.Time
		for i, scheme := range []kernel.Scheme{kernel.OSDP, kernel.HWDP} {
			cfg := core.DefaultConfig(scheme)
			cfg.MemoryBytes = p.memoryBytes()
			cfg.Device = dev
			cfg.DeviceJitter = false
			sys := cfg.Build()
			va, _, err := sys.MapFile("probe", 16, nil, sys.FastFlags())
			if err != nil {
				return nil, err
			}
			lats[i] = sys.MeasureSingleFault(sys.WorkloadThread(0), va)
		}
		c := kernel.DefaultCosts()
		hwTime := lats[1] - dev.Read4K
		res.Rows = append(res.Rows, DeviceSweepRow{
			Device: dev.Name, OSDP: lats[0], HWDP: lats[1],
			Reduction:      1 - float64(lats[1])/float64(lats[0]),
			OverheadOfDev:  float64(c.OSDPOverhead()) / float64(dev.Read4K),
			HWShareOfTotal: float64(hwTime) / float64(lats[1]),
		})
	}
	return res, nil
}

// String renders the DeviceSweepResult as the paper-style text table.
func (r *DeviceSweepResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: device-generation sweep, single fault OSDP vs HWDP\n")
	b.WriteString("  device          OSDP         HWDP         reduction   OS-overhead/device\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s  %-11v  %-11v  %8.1f%%   %17.0f%%\n",
			row.Device, row.OSDP, row.HWDP, 100*row.Reduction, 100*row.OverheadOfDev)
	}
	b.WriteString("  (the faster the device, the larger the share the OS wastes — the\n")
	b.WriteString("   paper's core motivation)\n")
	return b.String()
}

// PrefetchRow is one (pattern, degree) cell of the prefetch ablation.
type PrefetchRow struct {
	Pattern    string
	Degree     int
	MeanLat    sim.Time
	Throughput float64
	Prefetches uint64
}

// PrefetchResult explores the future-work SMU prefetcher: it pays off on
// sequential scans and is useless (by design, never harmful to
// correctness) on random access — consistent with the paper disabling
// readahead for its random workloads.
type PrefetchResult struct{ Rows []PrefetchRow }

// AblationPrefetch runs sequential and random single-thread FIO at
// prefetch degrees 0, 1 and 4.
func AblationPrefetch(p Params) (*PrefetchResult, error) {
	res := &PrefetchResult{}
	for _, pattern := range []string{"sequential", "random"} {
		for _, degree := range []int{0, 1, 4} {
			cfg := core.DefaultConfig(kernel.HWDP)
			cfg.MemoryBytes = p.memoryBytes()
			cfg.Seed = p.Seed
			cfg.FSBlocks = uint64(p.datasetPages())*4 + (1 << 16)
			cfg.PrefetchDegree = degree
			cfg.Kernel.KptedPeriod = sim.Time(p.MemoryMB) * 600 * sim.Microsecond
			sys := cfg.Build()
			fio, err := workload.SetupFIO(sys, "fio.dat", p.datasetPages(), sys.FastFlags())
			if err != nil {
				return nil, err
			}
			if pattern == "sequential" {
				fio.Sequential = true
			}
			rs := workload.Run(sys, threadSet(sys, 1), fio,
				workload.RunOptions{OpsPerThread: p.OpsPerThread, WarmupOps: p.WarmupOps / 4})
			m := workload.Merge(rs)
			res.Rows = append(res.Rows, PrefetchRow{
				Pattern: pattern, Degree: degree,
				MeanLat:    m.MeanLatency(),
				Throughput: m.Throughput(),
				Prefetches: sys.MMU.Stats().Prefetches,
			})
		}
	}
	return res, nil
}

// String renders the PrefetchResult as the paper-style text table.
func (r *PrefetchResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation: SMU sequential prefetcher (future work, Section V)\n")
	b.WriteString("  pattern      degree   mean latency   throughput(op/s)   prefetches\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s   %6d   %12v   %16.0f   %10d\n",
			row.Pattern, row.Degree, row.MeanLat, row.Throughput, row.Prefetches)
	}
	b.WriteString("  (prefetch slashes sequential miss latency; random patterns see no\n")
	b.WriteString("   benefit — why the paper's evaluation disables readahead)\n")
	return b.String()
}
