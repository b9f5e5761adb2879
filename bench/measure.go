package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"hwdp/internal/check"
	"hwdp/internal/core"
	"hwdp/internal/cpu"
	"hwdp/internal/metrics"
	"hwdp/internal/sim"
	"hwdp/internal/trace"
	"hwdp/internal/workload"
)

// metricDef declares one reported metric. BENCHMARK.json declares the same
// names, units and directions; the smoke test keeps the two in step.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the simulator sees. Host metrics are
// medians over the timed reps, host times in calibrated seconds; simulated
// ones repeat exactly for a seed.
var endToEnd = []metricDef{
	{"run_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"sim_kops", "kops/s", "higher"},
	{"sim_lat_p50_us", "us", "lower"},
	{"sim_lat_p999_us", "us", "lower"},
}

// hostModules are the layers the profiled rep charges host time to: the
// simulator's packages, the benchmark's own code, and gc for samples with
// no repository frame.
var hostModules = []string{"sim", "cpu", "mmu", "pagetable", "smu", "nvme", "ssd", "kernel",
	"mem", "fs", "kvs", "workload", "metrics", "trace", "core", "bench", "gc"}

// traceLayers are the layers the tracer attributes simulated miss time to.
var traceLayers = []trace.Layer{trace.LayerMMU, trace.LayerSMU, trace.LayerNVMe, trace.LayerSSD, trace.LayerKernel}

// perLayer are the metrics of single layers.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, m := range hostModules {
		defs = append(defs, metricDef{m + ".host_s", "s", "lower"})
	}
	defs = append(defs, []metricDef{
		{"sim.events", "count", "lower"},
		{"sim.events_per_s", "1/s", "higher"},
		{"gc.mallocs", "count", "lower"},
		{"gc.cycles", "count", "lower"},
		{"core.setup_s", "s", "lower"},
		{"fs.setup_s", "s", "lower"},
		{"trace.overhead_pct", "%", "lower"},
		{"bench.run_wall_s", "s", "lower"},
		{"bench.ref_s", "s", "lower"},
		{"workload.ops", "count", "higher"},
		{"mmu.accesses", "count", "higher"},
		{"mmu.tlb_hit_ratio", "ratio", "higher"},
		{"mmu.hw_misses", "count", "lower"},
		{"mmu.os_faults", "count", "lower"},
		{"mmu.hw_bounced", "count", "lower"},
		{"smu.handled", "count", "higher"},
		{"smu.coalesced", "count", "higher"},
		{"smu.backlogged", "count", "lower"},
		{"smu.no_free_page", "count", "lower"},
		{"smu.buffer_misses", "count", "lower"},
		{"smu.backlog_wait_p99_us", "us", "lower"},
		{"smu.qos_wait_p99_us", "us", "lower"},
		{"smu.qos_throttles", "count", "lower"},
		{"ssd.reads", "count", "lower"},
		{"ssd.writes", "count", "lower"},
		{"ssd.queue_wait_mean_us", "us", "lower"},
		{"ssd.media_busy_mean_us", "us", "lower"},
		{"kernel.major_faults", "count", "lower"},
		{"kernel.minor_faults", "count", "lower"},
		{"kernel.evictions", "count", "lower"},
		{"kernel.writebacks", "count", "lower"},
		{"kernel.direct_reclaims", "count", "lower"},
		{"kernel.kpoold_frames", "count", "lower"},
		{"kernel.fault_refills", "count", "lower"},
		{"kernel.hw_bounce_faults", "count", "lower"},
		{"kernel.stall_timeouts", "count", "lower"},
		{"mem.resident_buffers", "count", "lower"},
		{"mem.frame_allocs", "count", "lower"},
		{"fs.block_writes", "count", "lower"},
		{"cpu.user_ipc", "instr/cycle", "higher"},
		{"cpu.kernel_instr", "count", "lower"},
	}...)
	for _, l := range traceLayers {
		defs = append(defs, metricDef{l.String() + ".sim_mean_us", "us", "lower"},
			metricDef{l.String() + ".sim_p99_us", "us", "lower"})
	}
	return append(defs, metricDef{"trace.misses", "count", "lower"},
		metricDef{"trace.unattributed_mean_us", "us", "lower"})
}()

// options are the settings of one benchmark invocation.
type options struct {
	seed uint64
	// seconds bounds the timed reps of each workload, with the profiled
	// and traced reps if traced (at least minReps timed reps); zero runs
	// exactly reps of them.
	seconds int
	reps    int
	traced  bool
	size    size
	// profDir receives the profiled rep's CPU profile.
	profDir string
}

// minReps is the fewest timed reps a time-bounded run makes.
const minReps = 3

// report is one workload's measurement.
type report struct {
	name string
	// vals holds each metric's values: one per timed rep (setupBuilds per
	// rep for set-up times), or one from the profiled or the traced rep.
	vals   map[string][]float64
	reps   int
	digest string
	// problems lists every failed correctness check.
	problems          []string
	attempted, failed uint64
	// latCount is the number of per-op latency samples behind the
	// simulated percentiles.
	latCount uint64
	// hostShare is each layer's share of the profiled rep's host samples.
	hostShare map[string]float64
}

// rep is what one run of a workload on a fresh machine measured.
type rep struct {
	// vals holds one value per metric, except setupBuilds for set-up times.
	vals     map[string][]float64
	digest   string
	ops      uint64
	failed   uint64
	latCount uint64
	problems []string
}

// runWorkload runs one discarded warm-up rep and the timed reps; with
// o.traced, a profiled rep and a traced rep follow. It checks that every
// rep simulated the same machine. refLoop runs between reps, and each rep's
// host times are calibrated by the mean of the two runs around it.
func runWorkload(name string, o options) (*report, error) {
	warm, err := runRep(name, o, false, "")
	if err != nil {
		return nil, err
	}
	r := &report{name: name, vals: map[string][]float64{}, digest: warm.digest, latCount: warm.latCount}
	r.absorb(warm, "warm-up rep")
	ref := refLoop()
	calibrated := func(traced bool, profile string) (rep, error) {
		x, err := runRep(name, o, traced, profile)
		if err != nil {
			return rep{}, err
		}
		next := refLoop()
		x.calibrate((ref + next) / 2)
		ref = next
		return x, nil
	}

	// A time-bounded run starts no rep it cannot finish within o.seconds,
	// keeping room for the profiled and traced reps, which take about three
	// timed reps together.
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var last time.Duration
	for {
		if o.seconds > 0 {
			need := last
			if o.traced {
				need = 4 * last
			}
			if r.reps >= minReps && time.Since(start)+need > budget {
				break
			}
		} else if r.reps >= o.reps {
			break
		}
		repStart := time.Now()
		x, err := calibrated(false, "")
		if err != nil {
			return nil, err
		}
		last = time.Since(repStart)
		r.reps++
		r.absorb(x, fmt.Sprintf("timed rep %d", r.reps))
		for k, v := range x.vals {
			r.vals[k] = append(r.vals[k], v...)
		}
	}
	if !o.traced {
		return r, nil
	}

	// The CPU profile is taken with the tracer off, so its host split
	// decomposes run_s; with the tracer on, the heap of retained misses
	// would charge much of the run to GC marking instead.
	prof := filepath.Join(o.profDir, "cpu-"+name+".pprof")
	x, err := calibrated(false, prof)
	if err != nil {
		return nil, err
	}
	r.absorb(x, "profiled rep")
	samples, err := foldProfile(prof)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, s := range samples {
		total += s
	}
	r.hostShare = map[string]float64{}
	for layer, s := range samples {
		r.hostShare[layer] = s / total
	}
	for _, m := range hostModules {
		r.vals[m+".host_s"] = []float64{samples[m]}
	}

	x, err = calibrated(true, "")
	if err != nil {
		return nil, err
	}
	r.absorb(x, "traced rep")
	for k, v := range x.vals {
		if strings.HasPrefix(k, "trace.") || strings.Contains(k, ".sim_") {
			r.vals[k] = v
		}
	}
	_, untraced, _ := quartiles(r.vals["run_s"])
	r.vals["trace.overhead_pct"] = []float64{100 * (x.vals["run_s"][0]/untraced - 1)}
	return r, nil
}

// absorb counts one rep's ops and failures and checks its simulated digest
// against the warm-up rep's.
func (r *report) absorb(x rep, label string) {
	r.attempted += x.ops
	r.failed += x.failed
	if x.failed > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%s: %d failed ops or killed threads", label, x.failed))
	}
	for _, p := range x.problems {
		r.problems = append(r.problems, label+": "+p)
	}
	if x.digest != r.digest {
		r.problems = append(r.problems, fmt.Sprintf("%s: simulated digest %.16s differs from the warm-up's %.16s", label, x.digest, r.digest))
	}
}

// setupBuilds is how many times each rep builds its machine. Set-up takes
// milliseconds, so one timing per rep would be mostly noise.
const setupBuilds = 10

// runRep builds the workload on a fresh machine, with the per-miss tracer
// on if traced, and times its run call. A non-empty profile names the file
// that receives a CPU profile of the run call. Host times are wall seconds,
// not yet calibrated.
func runRep(name string, o options, traced bool, profile string) (rep, error) {
	x := rep{vals: map[string][]float64{}}
	var in *instance
	for i := 0; i < setupBuilds; i++ {
		in = nil // so the GC below reclaims the previous build
		runtime.GC()
		start := time.Now()
		b, err := build(name, o.seed, o.size, traced)
		if err != nil {
			return rep{}, err
		}
		x.add("setup_s", time.Since(start).Seconds())
		x.add("core.setup_s", b.coreS)
		x.add("fs.setup_s", b.fsS)
		in = b
	}

	var before, after, live runtime.MemStats
	runtime.ReadMemStats(&before)
	stop := func() error { return nil }
	if profile != "" {
		var err error
		if stop, err = startProfile(profile); err != nil {
			return rep{}, err
		}
	}
	start := time.Now()
	rs := workload.RunMixed(in.sys, in.as, in.opt)
	runS := time.Since(start).Seconds()
	if err := stop(); err != nil {
		return rep{}, err
	}
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&live)

	m := workload.Merge(rs)
	killed := uint64(0)
	for _, a := range in.as {
		if a.Th.Killed {
			killed++
		}
	}
	x.digest, x.ops, x.failed, x.latCount = digest(in.sys, m, killed), m.Ops, m.Errors+killed, m.Lat.Count()
	for _, v := range check.System(in.sys) {
		x.problems = append(x.problems, "invariant "+v.String())
	}
	sim := simValues(in.sys, m)
	if in.sys.Trace != nil {
		for k, v := range traceValues(in.sys.Trace) {
			sim[k] = v
		}
	}
	for k, v := range sim {
		x.add(k, v)
	}
	x.add("run_s", runS)
	x.add("alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	x.add("live_heap_mb", float64(live.HeapAlloc)/1e6)
	x.add("gc.mallocs", float64(after.Mallocs-before.Mallocs))
	x.add("gc.cycles", float64(after.NumGC-before.NumGC))
	return x, nil
}

func (x rep) add(name string, v float64) { x.vals[name] = append(x.vals[name], v) }

func startProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// us converts picoseconds to microseconds.
func us(ps int64) float64 { return float64(ps) / 1e6 }

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// simValues reads the simulated metrics off the machine, summing every
// per-socket layer over all sockets. Counters cover the whole run,
// warm-up included; latencies cover the measured ops.
func simValues(sys *core.System, m workload.Result) map[string]float64 {
	v := map[string]float64{
		"sim_kops":        m.Throughput() / 1e3,
		"sim_lat_p50_us":  us(m.Lat.Percentile(50)),
		"sim_lat_p999_us": us(m.Lat.Percentile(99.9)),
		"sim.events":      float64(sys.Eng.Fired()),
		"workload.ops":    float64(m.Ops),
	}
	ms := sys.MMU.Stats()
	v["mmu.accesses"] = float64(ms.Accesses)
	v["mmu.tlb_hit_ratio"] = ratio(ms.TLBHits, ms.Accesses)
	v["mmu.hw_misses"] = float64(ms.HWMisses)
	v["mmu.os_faults"] = float64(ms.OSFaults)
	v["mmu.hw_bounced"] = float64(ms.HWBounced)

	qos := metrics.NewHistogram()
	for _, s := range sys.SMUs {
		st := s.Stats()
		v["smu.handled"] += float64(st.Handled)
		v["smu.coalesced"] += float64(st.Coalesced)
		v["smu.backlogged"] += float64(st.Backlogged)
		v["smu.no_free_page"] += float64(st.NoFreePage)
		v["smu.buffer_misses"] += float64(st.BufferMisses)
		qos.Merge(s.QoSWait())
	}
	v["smu.backlog_wait_p99_us"] = us(sys.BacklogWait().Percentile(99))
	v["smu.qos_wait_p99_us"] = us(qos.Percentile(99))
	v["smu.qos_throttles"] = float64(qos.Count())

	var cmds uint64
	var wait, busy sim.Time
	for _, d := range sys.Devs {
		st := d.Stats()
		v["ssd.reads"] += float64(st.Reads)
		v["ssd.writes"] += float64(st.Writes)
		cmds += st.Reads + st.Writes + st.Flushes
		wait += st.QueueWaitSum
		busy += st.MediaBusySum
	}
	if cmds > 0 {
		v["ssd.queue_wait_mean_us"] = us(int64(wait)) / float64(cmds)
		v["ssd.media_busy_mean_us"] = us(int64(busy)) / float64(cmds)
	}

	ks := sys.K.Stats()
	v["kernel.major_faults"] = float64(ks.MajorFaults)
	v["kernel.minor_faults"] = float64(ks.MinorFaults)
	v["kernel.evictions"] = float64(ks.Evictions)
	v["kernel.writebacks"] = float64(ks.Writebacks)
	v["kernel.direct_reclaims"] = float64(ks.DirectReclaims)
	v["kernel.kpoold_frames"] = float64(ks.KpooldFrames)
	v["kernel.fault_refills"] = float64(ks.FaultRefills)
	v["kernel.hw_bounce_faults"] = float64(ks.HWBounceFaults)
	v["kernel.stall_timeouts"] = float64(ks.StallTimeouts)

	v["mem.resident_buffers"] = float64(sys.Mem.ResidentBuffers())
	v["mem.frame_allocs"] = float64(sys.Mem.Allocs())
	for _, f := range sys.FSs {
		v["fs.block_writes"] += float64(f.Writes())
	}
	var c cpu.Counters
	for _, t := range sys.CPU.Threads() {
		c.Add(t.Counters)
	}
	v["cpu.user_ipc"] = c.UserIPC()
	v["cpu.kernel_instr"] = float64(c.KernelInstr)
	return v
}

// traceValues reads the tracer's simulated time per layer: the mean and
// p99 time a miss spent in each layer, and the mean time per miss no span
// covers.
func traceValues(tr *trace.Tracer) map[string]float64 {
	v := map[string]float64{}
	for _, l := range traceLayers {
		h := tr.LayerStats(l)
		v[l.String()+".sim_mean_us"] = h.Mean() / 1e6
		v[l.String()+".sim_p99_us"] = us(h.Percentile(99))
	}
	misses := tr.Misses()
	var rest sim.Time
	for _, m := range misses {
		r := m.Total()
		for _, s := range m.Spans {
			r -= s.Dur()
		}
		if r > 0 {
			rest += r
		}
	}
	v["trace.misses"] = float64(len(misses))
	if len(misses) > 0 {
		v["trace.unattributed_mean_us"] = us(int64(rest)) / float64(len(misses))
	}
	return v
}

// digest hashes everything the run simulated: op counts, errors, elapsed
// time, latency percentiles, events fired and every layer's counters. Two
// runs of one seed must agree on it whatever the host did.
func digest(sys *core.System, m workload.Result, killed uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "ops %d errors %d killed %d elapsed %d events %d\n",
		m.Ops, m.Errors, killed, m.Elapsed, sys.Eng.Fired())
	for _, p := range []float64{50, 99, 99.9, 99.99} {
		fmt.Fprintf(h, "p%g %d\n", p, m.Lat.Percentile(p))
	}
	fmt.Fprintf(h, "%#v\n%#v\n", sys.MMU.Stats(), sys.K.Stats())
	for _, s := range sys.SMUs {
		fmt.Fprintf(h, "%#v backlog %d qos %d\n", s.Stats(), s.BacklogWait().Sum(), s.QoSWait().Sum())
	}
	for _, d := range sys.Devs {
		fmt.Fprintf(h, "%#v\n", d.Stats())
	}
	for _, f := range sys.FSs {
		fmt.Fprintf(h, "fs %d %d\n", f.Writes(), f.Remaps())
	}
	fmt.Fprintf(h, "mem %d %d %d\n", sys.Mem.Allocs(), sys.Mem.Frees(), sys.Mem.ResidentBuffers())
	for _, t := range sys.CPU.Threads() {
		fmt.Fprintf(h, "%#v\n", t.Counters)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// quartiles returns the first quartile, median and third quartile of vs by
// the rule of Python's statistics.quantiles(vs, n=4).
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
