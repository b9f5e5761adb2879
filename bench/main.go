// Command bench is the repository's benchmark. It runs four simulated
// workloads, each several times on a fresh machine, and reports two kinds of
// performance side by side: the simulator's own host cost (run time, set-up
// time, allocation, live heap) and the simulated machine's throughput and
// latency. Host times are calibrated against a fixed reference loop run
// between reps, so the host's drifting speed cancels (see calibrate.go).
// A profiled rep then splits host time by layer, and a traced rep
// splits simulated miss time by layer. Every rep must simulate the same
// machine: the benchmark checks the machine's invariants, counts failed
// ops, and compares a digest of everything simulated across all reps,
// traced or not. See README.md.
//
// Run it from the repository root:
//
//	bash bench/run.sh [-workload a,b] [-seed N] [-seconds S] [-trace 0|1]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer ones with -trace 1.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// digestsJSON records each workload's simulated digest at seed 1, so a
// change to the model shows.
//
//go:embed digests.json
var digestsJSON []byte

// fullReps is the number of timed reps when no time budget is given.
const fullReps = 5

func main() {
	var o options
	var names string
	flag.StringVar(&names, "workload", strings.Join(workloadNames, ","), "comma-separated workloads to run")
	flag.StringVar(&names, "workloads", strings.Join(workloadNames, ","), "alias of -workload")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is made from")
	flag.IntVar(&o.seconds, "seconds", 0, "measure each workload for this many seconds (0: exactly 5 timed reps)")
	traceFlag := flag.Int("trace", 1, "1: also run the profiled and traced reps and print per-layer metrics in the JSON line; 0: end-to-end metrics only")
	flag.Parse()
	if flag.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || o.seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	o.reps, o.size, o.traced = fullReps, fullSize, *traceFlag == 1
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	o.profDir = filepath.Dir(exe)
	var recorded map[string]string
	if err := json.Unmarshal(digestsJSON, &recorded); err != nil {
		fatal(fmt.Errorf("digests.json: %w", err))
	}

	printHost(os.Stdout)
	var reports []*report
	for _, name := range strings.Split(names, ",") {
		r, err := runWorkload(name, o)
		if err != nil {
			fatal(err)
		}
		printReport(os.Stdout, r)
		if o.seed == 1 && r.digest != recorded[name] {
			fmt.Printf("  simulated output differs: this change alters the model (digest %s, recorded %s)\n",
				r.digest, recorded[name])
		}
		reports = append(reports, r)
	}
	printGain(os.Stdout, reports)
	res := summarize(reports, o.traced)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// metricValue is one metric of the JSON result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON result line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize builds the result line: each metric's median, the per-layer
// metrics when the profiled and traced reps ran, the end-to-end ones
// otherwise.
// Metric names carry a "<workload>." prefix when several workloads ran.
func summarize(reports []*report, traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range reports {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if len(r.problems) > 0 {
			res.Correct = false
		}
		prefix := ""
		if len(reports) > 1 {
			prefix = r.name + "."
		}
		for _, d := range defs {
			_, med, _ := quartiles(r.vals[d.name])
			res.Metrics[prefix+d.name] = metricValue{med, d.unit}
		}
	}
	return res
}

// printHost records the host, so a comparison across hosts is flagged
// rather than trusted.
func printHost(w io.Writer) {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(w, "host: cpu %q, nproc %d, GOMAXPROCS %d, %s\n",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// printReport prints every metric of one workload with its unit, median,
// quartiles and rep count, plus the sample count behind the simulated
// latency percentiles and the profiled rep's host-time split.
func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "\n== %s: %d timed reps after 1 warm-up, %d ops, %d failed, digest %s\n",
		r.name, r.reps, r.attempted, r.failed, r.digest)
	for _, p := range r.problems {
		fmt.Fprintf(w, "  INCORRECT: %s\n", p)
	}
	fmt.Fprintf(w, "  %-28s %-12s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		vs := r.vals[d.name]
		if len(vs) == 0 {
			continue
		}
		q1, med, q3 := quartiles(vs)
		fmt.Fprintf(w, "  %-28s %-12s %14.6g %14.6g %14.6g %4d", d.name, d.unit, med, q1, q3, len(vs))
		switch d.name {
		case "sim_lat_p50_us":
			fmt.Fprintf(w, "  (%d samples)", r.latCount)
		case "sim_lat_p999_us":
			fmt.Fprintf(w, "  (%d samples, %d beyond)", r.latCount, r.latCount/1000)
		}
		fmt.Fprintln(w)
	}
	if r.hostShare == nil {
		return
	}
	layers := make([]string, 0, len(r.hostShare))
	for l := range r.hostShare {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return r.hostShare[layers[i]] > r.hostShare[layers[j]] })
	fmt.Fprintf(w, "  host self time in the profiled rep:")
	for _, l := range layers {
		fmt.Fprintf(w, " %s %.1f%%", l, 100*r.hostShare[l])
	}
	fmt.Fprintln(w)
}

// printGain prints the simulated HWDP/OSDP FIO throughput gain next to the
// paper's Fig. 13 FIO range, the only accuracy reference the repository
// has. It is informational: no bound applies to it.
func printGain(w io.Writer, reports []*report) {
	kops := map[string]float64{}
	for _, r := range reports {
		_, kops[r.name], _ = quartiles(r.vals["sim_kops"])
	}
	if kops["fio-hwdp"] > 0 && kops["fio-osdp"] > 0 {
		fmt.Fprintf(w, "\nHWDP/OSDP FIO simulated throughput gain: %+.1f%% (paper Fig. 13, FIO: +29.4%% to +57.1%%)\n",
			100*(kops["fio-hwdp"]/kops["fio-osdp"]-1))
	}
}
