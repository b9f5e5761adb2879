package figures

import (
	"fmt"
	"strings"

	"hwdp/internal/core"
	"hwdp/internal/kernel"
	"hwdp/internal/sim"
	"hwdp/internal/ssd/modeled"
	"hwdp/internal/workload"
)

// SSDSteadyRow is one device configuration of the fresh-vs-steady-state
// comparison.
type SSDSteadyRow struct {
	Backend    string // "profile", "modeled/fresh", "modeled/steady"
	Throughput float64
	MeanLat    sim.Time
	P50        sim.Time
	P999       sim.Time
	WriteAmp   float64 // 1 for the profile backend (no FTL)
	GCRuns     uint64
}

// SSDSteadyResult is the fresh-vs-steady-state figure: the same
// write-heavy cold FIO run against the latency-profile device, a fresh
// modeled device, and a churn-preconditioned modeled device. It makes
// the Amber/SimpleSSD argument concrete on this machine: fresh-drive
// numbers (profile or unaged FTL) undersell the tails a steady-state
// drive actually has.
type SSDSteadyResult struct {
	Rows  []SSDSteadyRow
	Churn float64
}

// steadyChurn returns the figure's aging knob: the Params' churn when
// set, else 2 full overwrites of the dataset.
func steadyChurn(p Params) float64 {
	if p.SSDChurn > 0 {
		return p.SSDChurn
	}
	return 2
}

// runSSDRow runs the figure's workload (8-thread cold randrw FIO, 30%
// writes) on one device configuration.
func runSSDRow(p Params, name string, configure func(*core.Config)) (SSDSteadyRow, error) {
	p.SSDBackend = "" // configure picks the row's backend
	cfg := p.config(kernel.HWDP)
	configure(&cfg)
	sys := cfg.Build()
	fio, err := workload.SetupFIO(sys, "fio.dat", p.datasetPages(), sys.FastFlags())
	if err != nil {
		return SSDSteadyRow{}, err
	}
	fio.Cold = true
	fio.WriteFrac = 0.3
	rs := workload.Run(sys, threadSet(sys, 8), fio,
		workload.RunOptions{OpsPerThread: p.OpsPerThread / 2, WarmupOps: p.WarmupOps / 2})
	m := workload.Merge(rs)
	row := SSDSteadyRow{
		Backend:    name,
		Throughput: m.Throughput(),
		MeanLat:    m.MeanLatency(),
		P50:        sim.Time(m.Lat.Percentile(50)),
		P999:       sim.Time(m.Lat.Percentile(99.9)),
		WriteAmp:   1,
	}
	if len(sys.ModeledSSDs) > 0 {
		st := sys.ModeledSSDs[0].Stats()
		row.WriteAmp = st.WriteAmp()
		row.GCRuns = st.GCRuns
	}
	return row, nil
}

// AblationSSDSteady runs the fresh-vs-steady-state comparison.
func AblationSSDSteady(p Params) (*SSDSteadyResult, error) {
	churn := steadyChurn(p)
	res := &SSDSteadyResult{Churn: churn}
	rows := []struct {
		name      string
		configure func(*core.Config)
	}{
		{"profile", func(cfg *core.Config) {}},
		{"modeled/fresh", func(cfg *core.Config) {
			cfg.SSDBackend = "modeled"
			cfg.SSDModeled.FillFrac = 1
		}},
		{"modeled/steady", func(cfg *core.Config) {
			cfg.SSDBackend = "modeled"
			cfg.SSDModeled.FillFrac = 1
			cfg.SSDModeled.ChurnOverwrites = churn
		}},
	}
	for _, r := range rows {
		row, err := runSSDRow(p, r.name, r.configure)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the SSDSteadyResult as the paper-style text table.
func (r *SSDSteadyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: SSD backend, fresh vs steady state (8-thread cold randrw FIO, churn %gx)\n", r.Churn)
	b.WriteString("  backend          throughput(op/s)   mean lat       p50           p99.9         WA      GC runs\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-15s  %16.0f   %-12v   %-11v   %-11v   %5.2f   %7d\n",
			row.Backend, row.Throughput, row.MeanLat, row.P50, row.P999,
			row.WriteAmp, row.GCRuns)
	}
	b.WriteString("  (the profile and fresh-FTL rows are the optimistic fresh-drive numbers;\n")
	b.WriteString("   preconditioning wakes GC up, and write amplification plus relocation\n")
	b.WriteString("   stalls surface in the p99.9 tail the profile backend cannot produce)\n")
	return b.String()
}

// GCTailRow is one GC-policy configuration of the tail ablation.
type GCTailRow struct {
	Config   string // "profile", "greedy", "cost-benefit"
	P50      sim.Time
	P999     sim.Time
	WriteAmp float64
}

// GCTailResult is the GC-tail ablation: identical steady-state drives
// under the two victim policies, with the profile backend as the
// no-GC-possible baseline. The quantity under test is the tail
// (p99/p99.9) that garbage collection induces and the policy's ability
// to trim it.
type GCTailResult struct {
	Rows  []GCTailRow
	Churn float64
}

// AblationGCTail measures the GC-induced tail under both victim policies.
func AblationGCTail(p Params) (*GCTailResult, error) {
	churn := steadyChurn(p)
	res := &GCTailResult{Churn: churn}
	rows := []struct {
		name      string
		configure func(*core.Config)
	}{
		{"profile", func(cfg *core.Config) {}},
		{"greedy", func(cfg *core.Config) {
			cfg.SSDBackend = "modeled"
			cfg.SSDModeled.GCPolicy = modeled.Greedy
			cfg.SSDModeled.ChurnOverwrites = churn
		}},
		{"cost-benefit", func(cfg *core.Config) {
			cfg.SSDBackend = "modeled"
			cfg.SSDModeled.GCPolicy = modeled.CostBenefit
			cfg.SSDModeled.ChurnOverwrites = churn
		}},
	}
	for _, r := range rows {
		row, err := runSSDRow(p, r.name, r.configure)
		if err != nil {
			return nil, err
		}
		out := GCTailRow{
			Config:   r.name,
			P50:      row.P50,
			P999:     row.P999,
			WriteAmp: row.WriteAmp,
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// String renders the GCTailResult as the paper-style text table.
func (r *GCTailResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: GC victim policy vs miss-latency tail (steady state, churn %gx)\n", r.Churn)
	b.WriteString("  config         p50           p99.9         WA\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s   %-11v   %-11v   %5.2f\n",
			row.Config, row.P50, row.P999, row.WriteAmp)
	}
	b.WriteString("  (GC relocation and erase occupy planes for milliseconds: the modeled\n")
	b.WriteString("   rows grow a p99.9 tail the GC-free profile device cannot express)\n")
	return b.String()
}
