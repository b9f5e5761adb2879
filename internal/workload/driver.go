package workload

import (
	"fmt"

	"hwdp/internal/core"
	"hwdp/internal/kernel"
	"hwdp/internal/metrics"
	"hwdp/internal/sim"
)

// Workload is one benchmark: Op runs a single operation on a thread and
// reports completion (with any data-integrity error).
type Workload interface {
	Op(th *kernel.Thread, rng *sim.Rand, done func(err error))
}

// Result aggregates one thread's run.
type Result struct {
	Ops     uint64
	Errors  uint64
	Elapsed sim.Time
	Lat     *metrics.Histogram // per-op latency, picoseconds
}

// Throughput returns operations per virtual second.
func (r Result) Throughput() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// MeanLatency returns the mean per-op latency.
func (r Result) MeanLatency() sim.Time { return sim.Time(r.Lat.Mean()) }

// Merge combines per-thread results: ops sum, elapsed max, latencies merge.
func Merge(rs []Result) Result {
	out := Result{Lat: metrics.NewHistogram()}
	for _, r := range rs {
		out.Ops += r.Ops
		out.Errors += r.Errors
		if r.Elapsed > out.Elapsed {
			out.Elapsed = r.Elapsed
		}
		out.Lat.Merge(r.Lat)
	}
	return out
}

// RunOptions controls a driver run. Exactly one of OpsPerThread or
// Duration must be set.
type RunOptions struct {
	OpsPerThread int
	Duration     sim.Time
	// WarmupOps per thread are executed but excluded from the result.
	WarmupOps int
}

// Assignment pairs a thread with the workload it runs (mixed runs, e.g.
// the Fig. 16 FIO + SPEC co-scheduling).
type Assignment struct {
	Th *kernel.Thread
	W  Workload
}

// Run drives the workload on every thread concurrently until the stop
// condition, then returns per-thread results. It advances the simulation
// itself.
func Run(sys *core.System, threads []*kernel.Thread, w Workload, opt RunOptions) []Result {
	as := make([]Assignment, len(threads))
	for i, th := range threads {
		as[i] = Assignment{Th: th, W: w}
	}
	return RunMixed(sys, as, opt)
}

// RunMixed drives per-thread workloads concurrently (see Run).
func RunMixed(sys *core.System, assignments []Assignment, opt RunOptions) []Result {
	if (opt.OpsPerThread == 0) == (opt.Duration == 0) {
		panic("workload: set exactly one of OpsPerThread or Duration")
	}
	results := make([]Result, len(assignments))
	running := len(assignments)
	deadline := sim.Never
	if opt.Duration > 0 {
		deadline = sys.Eng.Now() + opt.Duration
	}
	for i, a := range assignments {
		results[i].Lat = metrics.NewHistogram()
		d := &driver{
			eng: sys.Eng, th: a.Th, w: a.W, rng: sys.Rng.Fork(uint64(i) + 100),
			res: &results[i], running: &running, deadline: deadline,
			opsPerThread: opt.OpsPerThread, warm: opt.WarmupOps, start: sys.Eng.Now(),
		}
		d.doneFn = d.opDone
		d.next()
	}
	sys.RunWhile(func() bool { return running > 0 })
	if running > 0 {
		panic(fmt.Sprintf("workload: %d threads never finished (event queue drained)", running))
	}
	return results
}

// driver is one thread's closed loop: each op's completion issues the
// next. Its completion callback is bound once, so the loop allocates
// nothing per op.
type driver struct {
	eng          *sim.Engine
	th           *kernel.Thread
	w            Workload
	rng          *sim.Rand
	res          *Result
	running      *int
	deadline     sim.Time
	opsPerThread int

	warm, measured int
	start, opStart sim.Time
	doneFn         func(error)
}

// next issues the thread's next op, or retires the thread when it is
// done.
func (d *driver) next() {
	now := d.eng.Now()
	// A thread killed by SIGBUS or the OOM killer stops issuing ops and
	// reports what it measured so far.
	if d.th.Killed || (d.deadline != sim.Never && now >= d.deadline) ||
		(d.opsPerThread > 0 && d.measured >= d.opsPerThread) {
		d.res.Elapsed = now - d.start
		*d.running--
		return
	}
	d.opStart = now
	d.w.Op(d.th, d.rng, d.doneFn)
}

// opDone records a finished op and issues the next.
func (d *driver) opDone(err error) {
	now := d.eng.Now()
	if d.warm > 0 {
		d.warm--
		d.start = now // move the measurement origin
	} else {
		d.measured++
		d.res.Ops++
		if err != nil {
			d.res.Errors++
		}
		d.res.Lat.Record(int64(now - d.opStart))
	}
	d.next()
}
