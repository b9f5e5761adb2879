// Package fleet models fleet-scale multi-tenant serving on the
// hardware-demand-paging machine: several tenants' processes share each
// socket's SMU, free page queue and NVMe device, with per-tenant
// weighted-fair admission (smu.QoSConfig) optionally isolating them. A
// fleet experiment builds one multi-socket machine, spreads tenant threads
// over the cores with zipfian intensity (a few hot tenants, a long tail),
// drives them for a fixed virtual duration, and reports per-tenant tail
// latency, throttle/fallback counters and SLO conformance.
//
// Everything here is harness-level composition: the tenant model itself
// lives in the layers below (kernel.Thread.Tenant → mmu.TenantCarrier →
// smu.Request.Tenant), and the fleet package only
// wires configs, workloads and reports around it. Fixed-seed runs are
// byte-identical across sweep workers; see docs/FLEET.md.
package fleet

import (
	"fmt"

	"hwdp/internal/core"
	"hwdp/internal/fs"
	"hwdp/internal/kernel"
	"hwdp/internal/metrics"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/smu"
	"hwdp/internal/workload"
)

// Config describes one fleet experiment.
type Config struct {
	// Name identifies the experiment ("fleet/skew0.99/qos").
	Name string `json:"name"`
	// Tenants is the number of tenants sharing the machine (>= 2).
	Tenants int `json:"tenants"`
	// Sockets is the machine's socket count; tenant t's dataset lives on
	// socket t % Sockets, so tenants share per-socket SMUs and devices.
	Sockets int `json:"sockets"`
	// Threads is the total workload thread count, split over tenants
	// proportionally to their zipfian intensity (each tenant gets at
	// least one).
	Threads int `json:"threads"`
	// MemoryMB sizes DRAM; DatasetRatio sizes the aggregate tenant
	// dataset as ratio * physical frames (2.0 = twice memory, so reclaim
	// keeps every tenant missing at steady state).
	MemoryMB     int     `json:"memory_mb"`
	DatasetRatio float64 `json:"dataset_ratio"`
	// Skew is the zipf theta of tenant intensity: 0 spreads threads
	// evenly, larger values concentrate them on tenant 0 (the noisy
	// neighbor). The victim is always the last tenant.
	Skew float64 `json:"skew"`
	// WriteFrac is the store fraction of every tenant's access mix.
	WriteFrac float64 `json:"write_frac"`
	// QoS arms per-tenant weighted-fair admission at every SMU with equal
	// weights (fair share). Off reproduces today's FIFO admission
	// byte-identically.
	QoS bool `json:"qos"`
	// PMSHREntries shrinks the PMSHR so tenants actually contend for
	// admission slots (0 keeps the prototype's 32).
	PMSHREntries int `json:"pmshr_entries"`
	// Duration is the measured virtual run length; Warmup is excluded
	// from every latency histogram (counters are not reset — they cover
	// the whole run).
	Duration sim.Time `json:"duration_ps"`
	Warmup   sim.Time `json:"warmup_ps"`
	// SLOTargetUS is the per-tenant p99.9 access-latency objective.
	SLOTargetUS float64 `json:"slo_target_us"`
	// Seed drives all randomness.
	Seed uint64 `json:"seed"`
}

// DefaultConfig is the standard fleet experiment: 3 tenants on a 2-socket
// machine (tenant 0 — the hot one — and the victim share socket 0), 16
// threads, dataset twice memory, a 2-entry PMSHR so the admission stage is
// the contended resource a noisy neighbor can monopolize.
func DefaultConfig() Config {
	return Config{
		Name:         "fleet",
		Tenants:      3,
		Sockets:      2,
		Threads:      16,
		MemoryMB:     64,
		DatasetRatio: 2.0,
		Skew:         2.0,
		WriteFrac:    0.1,
		PMSHREntries: 2,
		Duration:     40 * sim.Millisecond,
		Warmup:       8 * sim.Millisecond,
		SLOTargetUS:  200,
		Seed:         1,
	}
}

// Validate reports why the config cannot describe a fleet experiment.
func (c Config) Validate() error {
	if c.Tenants < 2 {
		return fmt.Errorf("fleet: need at least 2 tenants, have %d", c.Tenants)
	}
	if c.Threads < c.Tenants {
		return fmt.Errorf("fleet: %d threads cannot cover %d tenants", c.Threads, c.Tenants)
	}
	if c.Sockets < 1 || c.Sockets > 8 {
		return fmt.Errorf("fleet: sockets must be 1..8, have %d", c.Sockets)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("fleet: duration must be positive")
	}
	return nil
}

// ThreadCounts splits total threads over tenants proportionally to the
// zipfian intensity weights at the given skew, by largest remainder, with
// every tenant guaranteed at least one thread. The split is deterministic:
// ties break toward the lower-ranked (hotter) tenant.
func ThreadCounts(tenants, total int, skew float64) []int {
	w := workload.ZipfWeights(tenants, skew)
	counts := make([]int, tenants)
	// Reserve the one-thread floor, distribute the rest by weight.
	rest := total - tenants
	assigned := 0
	rem := make([]float64, tenants)
	for t := 0; t < tenants; t++ {
		exact := w[t] * float64(rest)
		counts[t] = 1 + int(exact)
		assigned += int(exact)
		rem[t] = exact - float64(int(exact))
	}
	for assigned < rest {
		best := 0
		for t := 1; t < tenants; t++ {
			if rem[t] > rem[best] {
				best = t
			}
		}
		counts[best]++
		rem[best] = -1
		assigned++
	}
	return counts
}

// TenantRow is one tenant's slice of a fleet run.
type TenantRow struct {
	Tenant  int     `json:"tenant"`
	Socket  int     `json:"socket"`
	Threads int     `json:"threads"`
	Weight  float64 `json:"weight"`

	Ops    uint64 `json:"ops"`
	Errors uint64 `json:"errors"`

	// SMU accounting summed over sockets (a tenant only touches its home
	// socket, but the sum keeps the report robust to future striping).
	HandledHW uint64 `json:"handled_hw"`
	Throttled uint64 `json:"throttled"`
	Fallbacks uint64 `json:"fallbacks"` // misses bounced to the OS (no free page)
	IOErrors  uint64 `json:"io_errors"`

	// Access latency percentiles (µs), measured after warmup.
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`

	// SLO conformance: p99.9 against the configured target.
	SLOTargetUS float64 `json:"slo_target_us"`
	SLOMet      bool    `json:"slo_met"`
}

// Result is the report of one fleet experiment.
type Result struct {
	Name    string  `json:"name"`
	Tenants int     `json:"tenants"`
	Sockets int     `json:"sockets"`
	Skew    float64 `json:"skew"`
	QoS     bool    `json:"qos"`

	Ops        uint64  `json:"ops"`
	Errors     uint64  `json:"errors"`
	Throughput float64 `json:"throughput_ops_per_sec"`

	// QoS-layer totals over all sockets.
	Throttles  uint64  `json:"throttles"`
	QoSWaitP99 float64 `json:"qos_wait_p99_us"`

	Rows []TenantRow `json:"rows"`

	// VictimP999US is the last (least-weighted) tenant's p99.9 — the
	// noisy-neighbor figure of merit.
	VictimP999US float64 `json:"victim_p999_us"`
	SLOMet       int     `json:"slo_met"`
}

// Run executes one fleet experiment to completion: it builds the machine,
// tenant processes, datasets and thread assignments, drives them for the
// configured duration and builds the per-tenant report.
func Run(c Config) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	counts := ThreadCounts(c.Tenants, c.Threads, c.Skew)
	weights := workload.ZipfWeights(c.Tenants, c.Skew)

	cfg := core.DefaultConfig(kernel.HWDP)
	cfg.Seed = c.Seed
	cfg.Sockets = c.Sockets
	cfg.MemoryBytes = uint64(c.MemoryMB) << 20
	cfg.PMSHREntries = c.PMSHREntries
	// One physical core per workload thread (threads pin to even hardware
	// threads; the background kernel threads ride odd SMT siblings), with
	// a floor that keeps the three background threads on distinct cores.
	if cfg.Cores < c.Threads {
		cfg.Cores = c.Threads
	}
	if cfg.Cores < 4 {
		cfg.Cores = 4
	}
	// Per-socket kpoold sweeps: the fleet path's sharded refill schedule.
	cfg.Kernel.ShardKpoold = true
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	for _, s := range sys.SMUs {
		s.EnsureTenants(c.Tenants)
		if c.QoS {
			// Equal weights: fair sharing of each socket's PMSHR and
			// device queue regardless of tenant intensity.
			w := make([]float64, c.Tenants)
			for i := range w {
				w[i] = 1
			}
			s.SetQoS(smu.QoSConfig{Tenants: c.Tenants, Weights: w})
		}
	}

	// Aggregate dataset = DatasetRatio * physical frames, split evenly so
	// intensity (thread count), not footprint, is what distinguishes
	// tenants.
	framesTotal := int(cfg.MemoryBytes / 4096)
	pagesPerTenant := int(float64(framesTotal) * c.DatasetRatio / float64(c.Tenants))
	if pagesPerTenant < 1 {
		return Result{}, fmt.Errorf("fleet: dataset ratio %.2f leaves no pages per tenant", c.DatasetRatio)
	}

	lat := make([]*metrics.Histogram, c.Tenants)
	tenantOf := make([]int, 0, c.Threads)
	var assignments []workload.Assignment
	hw := 0
	for t := 0; t < c.Tenants; t++ {
		socket := t % c.Sockets
		proc := sys.K.NewProcess()
		f, err := sys.FSs[socket].Create(fmt.Sprintf("tenant%02d.dat", t),
			pagesPerTenant, fs.SeededInit(c.Seed+uint64(t)))
		if err != nil {
			return Result{}, fmt.Errorf("fleet: tenant %d dataset: %w", t, err)
		}
		base, err := sys.K.Mmap(proc, uint8(socket), 0, f,
			pagetable.Prot{Write: true, User: true}, sys.FastFlags())
		if err != nil {
			return Result{}, fmt.Errorf("fleet: tenant %d mmap: %w", t, err)
		}
		lat[t] = metrics.NewHistogram()
		// A scrambled-zipfian page pick over the tenant's dataset, the
		// FIO per-op cost, then one access whose latency lands in the
		// tenant's histogram once the warm-up has passed.
		w := &workload.FIO{
			Sys: sys, Base: base, Pages: pagesPerTenant,
			Gen: workload.Scrambled{
				Gen: workload.NewZipfian(uint64(pagesPerTenant), workload.ZipfTheta),
				N:   uint64(pagesPerTenant),
			},
			WriteFrac: c.WriteFrac,
			Lat:       lat[t],
			LatFrom:   sys.Eng.Now() + c.Warmup,
		}
		for i := 0; i < counts[t]; i++ {
			th := sys.K.NewThread(proc, 2*hw)
			th.Tenant = t
			assignments = append(assignments, workload.Assignment{Th: th, W: w})
			tenantOf = append(tenantOf, t)
			hw++
		}
	}

	results := workload.RunMixed(sys, assignments, workload.RunOptions{Duration: c.Duration})

	res := Result{
		Name: c.Name, Tenants: c.Tenants, Sockets: c.Sockets,
		Skew: c.Skew, QoS: c.QoS,
	}
	perTenant := make([]workload.Result, c.Tenants)
	for i := range perTenant {
		perTenant[i].Lat = metrics.NewHistogram()
	}
	for i, r := range results {
		t := tenantOf[i]
		perTenant[t].Ops += r.Ops
		perTenant[t].Errors += r.Errors
		if r.Elapsed > perTenant[t].Elapsed {
			perTenant[t].Elapsed = r.Elapsed
		}
	}
	qosWait := metrics.NewHistogram()
	for _, s := range sys.SMUs {
		res.Throttles += s.QoSWait().Count()
		qosWait.Merge(s.QoSWait())
	}
	if qosWait.Count() > 0 {
		res.QoSWaitP99 = float64(qosWait.Percentile(99)) / 1e6
	}
	for t := 0; t < c.Tenants; t++ {
		row := TenantRow{
			Tenant: t, Socket: t % c.Sockets, Threads: counts[t],
			Weight: weights[t],
			Ops:    perTenant[t].Ops, Errors: perTenant[t].Errors,
			SLOTargetUS: c.SLOTargetUS,
		}
		for _, s := range sys.SMUs {
			ts := s.TenantCounters(t)
			row.HandledHW += ts.Handled
			row.Throttled += ts.Throttled
			row.Fallbacks += ts.NoFreePage
			row.IOErrors += ts.IOErrors
		}
		h := lat[t]
		if h.Count() > 0 {
			row.P50US = float64(h.Percentile(50)) / 1e6
			row.P99US = float64(h.Percentile(99)) / 1e6
			row.P999US = float64(h.Percentile(99.9)) / 1e6
		}
		row.SLOMet = row.P999US <= c.SLOTargetUS
		if row.SLOMet {
			res.SLOMet++
		}
		res.Ops += row.Ops
		res.Errors += row.Errors
		res.Rows = append(res.Rows, row)
	}
	res.Throughput = float64(res.Ops) / c.Duration.Seconds()
	res.VictimP999US = res.Rows[c.Tenants-1].P999US
	return res, nil
}
