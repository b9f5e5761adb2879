// Package sweep orchestrates experiment sweeps: it decomposes figure,
// table and benchmark regeneration into named, self-describing run units
// and executes them on a bounded worker pool while keeping every output
// byte-identical to a sequential run.
//
// The simulator itself is strictly single-threaded per System — the
// simdeterminism analyzer forbids goroutines inside the model packages —
// but the paper's artifacts are bags of *independent* fixed-seed runs, so
// the parallelism lives out here: each unit builds its own System, runs to
// completion on one goroutine, and returns its rendered text. Aggregation
// is deterministic by construction (results are emitted in unit-list
// order, never completion order), so `-j 8` and `-j 1` produce the same
// bytes on stdout.
//
// Robustness plumbing wraps every unit: a panicking run is captured with
// its stack and recorded as a structured failure without aborting the
// rest of the sweep, and a per-unit wall-clock timeout abandons runs that
// hang. A content-addressed result cache (see Cache) skips re-simulating
// units whose code and configuration are unchanged. See docs/SWEEP.md for
// the architecture and failure semantics.
package sweep

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Unit is one self-describing run of a sweep: a named experiment with a
// fixed configuration whose Run function produces the unit's rendered
// output. Units must be independent — each builds its own simulated
// machine — and deterministic for a fixed Fingerprint, which is what
// makes both parallel execution and result caching sound.
type Unit struct {
	// Name identifies the unit ("fig/12", "table/area", "fleet/quick/qos"). It is
	// the stable key used for ordering, the manifest and the cache.
	Name string
	// Kind groups units for reporting: "figure", "table", "fleet", ...
	Kind string
	// Fingerprint serializes every input that affects the unit's output
	// (parameters, seed, thread set). It is hashed into the cache key, so
	// any field that changes results must appear here.
	Fingerprint string
	// Run executes the experiment and returns its rendered text exactly
	// as it should appear on the aggregate output stream.
	Run func() (string, error)
	// Uncacheable marks units that always re-run, such as those whose
	// callers need the in-memory results of the run, not just its text.
	Uncacheable bool
}

// Status classifies how a unit run ended.
type Status string

// Unit outcomes recorded in Result and the manifest.
const (
	// StatusOK means the unit completed and produced output.
	StatusOK Status = "ok"
	// StatusFailed means Run returned an error.
	StatusFailed Status = "failed"
	// StatusPanicked means Run panicked; the stack is in Result.Stack.
	StatusPanicked Status = "panic"
	// StatusTimeout means Run exceeded Options.UnitTimeout and was
	// abandoned (its goroutine keeps running detached; its eventual
	// result is discarded).
	StatusTimeout Status = "timeout"
)

// Result is the structured record of one unit run.
type Result struct {
	// Name and Kind echo the unit.
	Name string
	Kind string
	// Status is the outcome; output below is empty unless StatusOK.
	Status Status
	// Output is the unit's rendered text (from Run or the cache).
	Output string
	// Err is the failure description for non-OK statuses.
	Err string
	// Stack is the captured goroutine stack for StatusPanicked.
	Stack string
	// CacheKey is the content address of this unit's result ("" when
	// caching is off or the unit is uncacheable).
	CacheKey string
	// Cache is "hit", "miss" or "off".
	Cache string
	// Duration is the wall-clock time spent on this unit (≈0 on a hit).
	Duration time.Duration
}

// Options configures a sweep run.
type Options struct {
	// Workers bounds the worker pool; <=0 means runtime.GOMAXPROCS(0).
	Workers int
	// Cache, when non-nil, serves and stores unit results by content
	// address. Failed runs are never cached.
	Cache *Cache
	// UnitTimeout is the per-unit wall-clock budget; 0 disables it.
	UnitTimeout time.Duration
	// Progress, when non-nil, receives one human-readable line per
	// completed unit (count, status, duration, cache state, ETA).
	Progress io.Writer
	// Out, when non-nil, receives each unit's Output in unit-list order
	// regardless of completion order, streamed as soon as the ordered
	// prefix is complete.
	Out io.Writer
}

// Run executes units on a bounded worker pool and returns one Result per
// unit, index-aligned with the input. Output emission and the returned
// slice are deterministic in unit order; only scheduling is concurrent.
func Run(units []Unit, opt Options) []Result {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}
	if workers < 1 {
		workers = 1
	}
	results := make([]Result, len(units))
	emit := &orderedEmitter{w: opt.Out, pending: make(map[int]string)}
	prog := newProgress(opt.Progress, len(units))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runUnit(units[i], opt)
				emit.deliver(i, results[i].Output)
				prog.finished(results[i])
			}
		}()
	}
	for i := range units {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// outcome carries a unit run's raw ending across the watchdog channel.
type outcome struct {
	status Status
	output string
	err    string
	stack  string
}

// runUnit executes one unit with cache lookup, panic capture and the
// wall-clock watchdog.
func runUnit(u Unit, opt Options) Result {
	res := Result{Name: u.Name, Kind: u.Kind, Cache: "off"}
	if opt.Cache != nil && !u.Uncacheable {
		res.CacheKey = opt.Cache.Key(u)
		if out, ok := opt.Cache.Get(res.CacheKey); ok {
			res.Status = StatusOK
			res.Output = out
			res.Cache = "hit"
			return res
		}
		res.Cache = "miss"
	}
	start := time.Now()
	// The unit runs on its own goroutine so the watchdog can abandon it:
	// a simulation stuck in an event loop cannot be preempted, only
	// detached. The buffered channel lets an abandoned run's eventual
	// outcome be dropped instead of leaking the goroutine forever.
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{
					status: StatusPanicked,
					err:    fmt.Sprintf("panic: %v", p),
					stack:  string(debug.Stack()),
				}
			}
		}()
		out, err := u.Run()
		if err != nil {
			ch <- outcome{status: StatusFailed, err: err.Error()}
			return
		}
		ch <- outcome{status: StatusOK, output: out}
	}()
	var timeout <-chan time.Time
	if opt.UnitTimeout > 0 {
		t := time.NewTimer(opt.UnitTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case oc := <-ch:
		res.Status = oc.status
		res.Output = oc.output
		res.Err = oc.err
		res.Stack = oc.stack
	case <-timeout:
		res.Status = StatusTimeout
		res.Err = fmt.Sprintf("exceeded the %v per-unit wall-clock budget; run abandoned", opt.UnitTimeout)
	}
	res.Duration = time.Since(start)
	if res.Status == StatusOK && res.Cache == "miss" {
		if err := opt.Cache.Put(res.CacheKey, res.Output); err != nil {
			// A cache write failure must not fail the sweep; the result
			// is still valid, only the next run loses the hit.
			res.Cache = "miss (store failed: " + err.Error() + ")"
		}
	}
	return res
}

// orderedEmitter streams unit outputs in unit-list order: a completed
// result is buffered until every earlier unit has been written, so the
// aggregate stream is byte-identical for any worker count.
type orderedEmitter struct {
	mu      sync.Mutex
	w       io.Writer
	next    int
	pending map[int]string
}

// deliver hands result i's output to the emitter, flushing the ready
// in-order prefix.
func (e *orderedEmitter) deliver(i int, out string) {
	if e.w == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pending[i] = out
	for {
		s, ok := e.pending[e.next]
		if !ok {
			return
		}
		delete(e.pending, e.next)
		io.WriteString(e.w, s)
		e.next++
	}
}
