// Command hwdpbench regenerates the paper's tables and figures on the
// simulated machine. Runs are decomposed into named units and executed by
// the internal/sweep scheduler: a bounded worker pool (figure text stays
// byte-identical to a sequential run at any -j), per-run panic/timeout
// isolation, and one machine-readable manifest (SWEEP_hwdp.json) for CI
// that also carries the campaign and fleet results.
//
// Usage:
//
//	hwdpbench -fig 1|2|3|4|11|12|13|14|15|16|17|kpoold|pmshr|devices|prefetch|ssd|gctail
//	hwdpbench -table 1|2|area
//	hwdpbench -all
//	hwdpbench -quick            # reduced op counts
//	hwdpbench -seed 7           # simulation seed for every unit (default 1)
//	hwdpbench -threads 1,4      # restrict Fig. 13's thread sweep
//	hwdpbench -j 8              # parallel run units (default GOMAXPROCS)
//	hwdpbench -ssd modeled      # FTL/GC media model (default profile) for every unit
//	                            # but 11, 17, devices, ssd and gctail (fixed devices)
//	hwdpbench -ssd-fill 0.8     # modeled preconditioning: fraction of LBAs filled
//	hwdpbench -ssd-churn 2      # modeled preconditioning: overwrite churn multiple
//	hwdpbench -run-timeout 15m  # per-unit wall-clock budget (0 disables)
//	hwdpbench -sweep-out f.json # sweep manifest path (default SWEEP_hwdp.json)
//	hwdpbench -breakdown        # per-layer miss-latency attribution, all schemes
//	hwdpbench -trace out.json   # Chrome trace of the same sweep (Perfetto)
//	hwdpbench -pressure         # chaos-pressure campaign
//	hwdpbench -pressure -quick  # bounded variant (CI smoke)
//	hwdpbench -fleet            # multi-tenant fleet sweep
//	hwdpbench -fleet -quick     # CI-sized variant (one skew, both modes)
//	hwdpbench -fig fleet        # alias for -fleet
//	hwdpbench -tenants 5        # override the fleet sweep's tenant count
//	hwdpbench -qos ladder       # fleet admission: ladder (off+on), on, off
//	hwdpbench -cpuprofile f     # write a CPU profile of the whole run
//	hwdpbench -memprofile f     # write an allocation profile at exit
//
// Unit results (figure/table text) stream to stdout in deterministic
// order; progress, ETA and failure records go to stderr. Campaign and
// fleet units also record their structured reports as the "data" of
// their runs in the sweep manifest. A unit that
// panics or times out is recorded in the manifest and reported, the
// remaining units complete, and the exit status is 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hwdp/internal/campaign"
	"hwdp/internal/core"
	"hwdp/internal/figures"
	"hwdp/internal/fleet"
	"hwdp/internal/kernel"
	"hwdp/internal/sweep"
	"hwdp/internal/trace"
	"hwdp/internal/workload"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate (1,2,3,4,11,12,13,14,15,16,17,kpoold,pmshr,devices,prefetch)")
	table := flag.String("table", "", "table to regenerate (1,2,area)")
	all := flag.Bool("all", false, "regenerate everything")
	quick := flag.Bool("quick", false, "use reduced op counts")
	seed := flag.Uint64("seed", 1, "simulation seed threaded through every experiment")
	threadsFlag := flag.String("threads", "", "comma-separated thread counts for -fig 13")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "max run units executing in parallel")
	ssdBackend := flag.String("ssd", "profile", "SSD media backend for figure units: profile or modeled (FTL + GC + plane parallelism, docs/SSD.md); units 11, 17, devices, ssd and gctail run fixed devices")
	ssdFill := flag.Float64("ssd-fill", 0, "modeled-backend preconditioning fill fraction (0 = backend default of 1)")
	ssdChurn := flag.Float64("ssd-churn", 0, "modeled-backend preconditioning churn, in multiples of the filled capacity (0 = fresh drive)")
	runTimeout := flag.Duration("run-timeout", 15*time.Minute, "per-unit wall-clock budget (0 disables)")
	sweepOut := flag.String("sweep-out", "SWEEP_hwdp.json", "sweep manifest path")
	breakdown := flag.Bool("breakdown", false, "run a traced FIO sweep over all three schemes and print per-layer latency attribution")
	tracePath := flag.String("trace", "", "write the traced sweep as Chrome trace_event JSON to this file")
	pressure := flag.Bool("pressure", false, "run the chaos-pressure campaign (oversubscription under fault storms)")
	fleetRun := flag.Bool("fleet", false, "run the multi-tenant fleet sweep (noisy-neighbor isolation ladder, docs/FLEET.md)")
	tenants := flag.Int("tenants", 0, "override the fleet sweep's tenant count (0 keeps the default)")
	qosMode := flag.String("qos", "ladder", "fleet admission modes to run: ladder (off and on), on, or off")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (read with go tool pprof)")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit (read with go tool pprof)")
	flag.Parse()
	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	if *fig == "fleet" {
		// -fig fleet is sugar for -fleet: the fleet sweep is a figure
		// family, but its units come from internal/fleet, not figures.
		*fleetRun = true
		*fig = ""
	}

	p := figures.Default()
	if *quick {
		p = figures.Quick()
	}
	p.Seed = *seed
	p.SSDBackend = *ssdBackend
	p.SSDFill = *ssdFill
	p.SSDChurn = *ssdChurn
	threads, err := parseThreads(*threadsFlag, core.DefaultConfig(kernel.HWDP).Cores)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hwdpbench:", err)
		os.Exit(2)
	}

	ran := false
	if *breakdown || *tracePath != "" {
		traceSweep(*quick, *breakdown, *tracePath, p)
		ran = true
	}

	units := figures.Units(p, threads)
	byName := make(map[string]sweep.Unit, len(units))
	for _, u := range units {
		byName[u.Name] = u
	}
	var sel []sweep.Unit
	if *pressure {
		sel = append(sel, campaign.Units(campaign.DefaultScenarios(*quick))...)
	}
	if *fleetRun {
		cfgs := fleet.Ladder(*seed)
		if *quick {
			cfgs = fleet.QuickLadder(*seed)
		}
		kept := cfgs[:0]
		for _, c := range cfgs {
			if *tenants > 0 {
				c.Tenants = *tenants
			}
			switch *qosMode {
			case "ladder":
			case "on":
				if !c.QoS {
					continue
				}
			case "off":
				if c.QoS {
					continue
				}
			default:
				fatal(fmt.Errorf("unknown -qos mode %q (want ladder, on or off)", *qosMode))
			}
			if err := c.Validate(); err != nil {
				fatal(err)
			}
			kept = append(kept, c)
		}
		sel = append(sel, fleet.Units(kept)...)
	}
	switch {
	case *all:
		sel = append(sel, units...)
	case *fig != "":
		// Sharded figures (Fig. 13) expand to every fig/<name>/* unit so
		// -fig 13 still regenerates the whole table.
		found := false
		for _, u := range units {
			if u.Name == "fig/"+*fig || strings.HasPrefix(u.Name, "fig/"+*fig+"/") {
				sel = append(sel, u)
				found = true
			}
		}
		if !found {
			fatal(fmt.Errorf("unknown figure %q", *fig))
		}
	case *table != "":
		u, ok := byName["table/"+*table]
		if !ok {
			fatal(fmt.Errorf("unknown table %q", *table))
		}
		sel = append(sel, u)
	}
	failed := 0
	if len(sel) > 0 {
		var results []sweep.Result
		results, failed = runSweep(sel, *jobs, *runTimeout, *sweepOut)
		ran = true
		// The comparison figures render from the runs' structured results,
		// including those of scenarios that failed their audit.
		var campaignResults []campaign.Result
		var fleetResults []fleet.Result
		for _, r := range results {
			switch d := r.Data.(type) {
			case campaign.Result:
				campaignResults = append(campaignResults, d)
			case fleet.Result:
				fleetResults = append(fleetResults, d)
			}
		}
		if *pressure {
			fmt.Println(campaign.RenderComparison(campaignResults))
		}
		if *fleetRun {
			fmt.Println(fleet.RenderComparison(fleetResults))
		}
	}
	stopProfiles()
	if failed > 0 {
		os.Exit(1)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// runSweep executes the selected units on the scheduler, writes the
// manifest, reports failures to stderr and returns the results with the
// number of units that did not complete (the caller decides the exit
// status, after any post-sweep output is written).
func runSweep(sel []sweep.Unit, jobs int, runTimeout time.Duration, sweepOut string) ([]sweep.Result, int) {
	start := time.Now()
	results := sweep.Run(sel, sweep.Options{
		Workers:     jobs,
		UnitTimeout: runTimeout,
		Progress:    os.Stderr,
		Out:         os.Stdout,
	})
	wall := time.Since(start)
	m := sweep.NewManifest(results, jobs, wall)
	if err := m.Write(sweepOut); err != nil {
		fatal(err)
	}
	for _, r := range results {
		if r.Status == sweep.StatusOK {
			continue
		}
		fmt.Fprintf(os.Stderr, "hwdpbench: %s %s: %s\n", r.Name, r.Status, r.Err)
		if r.Stack != "" {
			fmt.Fprintln(os.Stderr, r.Stack)
		}
	}
	fmt.Fprintf(os.Stderr,
		"sweep: %d/%d units ok in %v (aggregate %v, speedup %.2fx); manifest %s\n",
		m.OK, m.Units, wall.Round(10*time.Millisecond),
		time.Duration(m.AggregateMS*1e6).Round(10*time.Millisecond),
		m.ParallelSpeedup, sweepOut)
	return results, m.Failed
}

// traceSweep runs the same cold FIO workload under all three paging
// schemes with the observability tracer enabled, prints the per-layer
// critical-path attribution for each (when report is set), and optionally
// writes a combined Chrome trace with one process per scheme. The -ssd
// flags apply here too, so `-breakdown -ssd modeled` attributes mapping
// fetches, buffer stalls and plane waits alongside the profile backend's
// channel waits.
func traceSweep(quick, report bool, tracePath string, p figures.Params) {
	ops, warm := 2000, 200
	if quick {
		ops, warm = 500, 100
	}
	const (
		filePages = 64 << 8 // 64 MiB mapped file
		memBytes  = 32 << 20
		threads   = 4
	)
	var procs []trace.Process
	for _, scheme := range []kernel.Scheme{kernel.OSDP, kernel.SWDP, kernel.HWDP} {
		cfg := core.DefaultConfig(scheme)
		cfg.MemoryBytes = memBytes
		cfg.Seed = 1
		cfg.FSBlocks = filePages + (1 << 16)
		cfg.TraceEnabled = true
		p.ApplySSD(&cfg)
		sys, err := core.NewSystem(cfg)
		if err != nil {
			fatal(err)
		}
		fio, err := workload.SetupFIO(sys, "fio.dat", filePages, sys.FastFlags())
		if err != nil {
			fatal(err)
		}
		fio.Cold = true
		ths := make([]*kernel.Thread, threads)
		for i := range ths {
			ths[i] = sys.WorkloadThread(i)
		}
		workload.Run(sys, ths, fio,
			workload.RunOptions{OpsPerThread: ops, WarmupOps: warm})
		if report {
			fmt.Printf("=== %v ===\n%s\n", scheme, sys.Trace.Report())
		}
		procs = append(procs, trace.Process{Name: scheme.String(), T: sys.Trace})
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteChrome(f, procs...); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote Chrome trace to %s (open in https://ui.perfetto.dev)\n", tracePath)
	}
}

// parseThreads parses -threads: a comma-separated list of Fig. 13 thread
// counts, each in 1..cores because workload thread i runs on hardware
// thread 2i, the first of core i. The empty string selects the default
// sweep (nil).
func parseThreads(flagVal string, cores int) ([]int, error) {
	if flagVal == "" {
		return nil, nil
	}
	var threads []int
	for _, s := range strings.Split(flagVal, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("-threads: %v", err)
		}
		if n < 1 || n > cores {
			return nil, fmt.Errorf("-threads: %d threads outside 1..%d (one workload thread per core)", n, cores)
		}
		threads = append(threads, n)
	}
	return threads, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hwdpbench:", err)
	os.Exit(1)
}
