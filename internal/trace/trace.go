// Package trace is the observability layer of the simulator: a
// low-overhead, seed-deterministic event tracer that follows every page
// miss through the layers it crosses — MMU walk, SMU (CAM lookup, free
// page fetch, NVMe command write, doorbell), the device (channel queueing
// and media time) and the kernel exception path — and records typed span
// events stamped with virtual time.
//
// The per-miss trace context (*Miss) is created by the MMU when a walk
// turns into a miss and threaded by value through the layers; each layer
// attaches the spans it is responsible for. When the miss finishes, the
// tracer folds the spans into per-layer and per-phase latency histograms
// (the critical-path attribution report) and keeps the full record for
// export as Chrome trace_event JSON (viewable in Perfetto or
// chrome://tracing) and for the flight recorder, the latest of those
// records, consulted on postmortems.
//
// Tracing is off by default. Every method on *Tracer and *Miss is
// nil-receiver safe, and layers hold plain nil pointers when tracing is
// disabled, so the miss hot path performs no allocations and no work
// beyond a nil check (guarded by TestDisabledTracerAddsNoAllocations and
// BenchmarkDisabledTraceHooks).
//
// Determinism: the tracer reads only virtual time, assigns IDs in event
// order, and renders with stable iteration orders, so two runs of the same
// seed and config produce byte-identical trace JSON, reports and dumps.
package trace

import (
	"fmt"
	"strings"

	"hwdp/internal/metrics"
	"hwdp/internal/sim"
)

// Layer identifies the hardware or software component a span is charged
// to. The set mirrors the paper's latency breakdowns: who sits on the
// critical path of a page miss.
type Layer uint8

// Layers crossed by a page miss, in critical-path order.
const (
	// LayerMMU covers the TLB miss and the hardware page-table walk.
	LayerMMU Layer = iota
	// LayerSMU covers the Storage Management Unit: CAM lookup, free page
	// fetch, PMSHR bookkeeping, page-table update and MMU notification.
	LayerSMU
	// LayerNVMe covers the NVMe host-controller protocol work: command
	// write, submission-queue doorbell, completion-queue handling.
	LayerNVMe
	// LayerSSD covers the device itself: channel queue wait and media time.
	LayerSSD
	// LayerKernel covers the OS exception path: exception entry, fault
	// triage, block layer, context switches and metadata updates.
	LayerKernel

	numLayers
)

// String returns the layer's display name as used in reports and traces.
func (l Layer) String() string {
	switch l {
	case LayerMMU:
		return "mmu"
	case LayerSMU:
		return "smu"
	case LayerNVMe:
		return "nvme"
	case LayerSSD:
		return "ssd"
	case LayerKernel:
		return "kernel"
	}
	return "?"
}

// Cause classifies why (and how) a miss was handled.
type Cause uint8

// Miss causes. The creating layer sets an initial cause; layers downstream
// refine it (e.g. the kernel splits OS faults into major/minor, the SMU
// marks no-I/O zero fills). CauseBounced is sticky: once a hardware miss
// degrades to the OS path, later refinements keep the bounce visible.
const (
	// CauseUnknown is a miss whose handling path has not been classified
	// yet (e.g. an OS fault before triage).
	CauseUnknown Cause = iota
	// CauseHWMiss is a hardware-handled miss: pipeline stall + SMU.
	CauseHWMiss
	// CauseOSMajor is a conventional OS fault with device I/O.
	CauseOSMajor
	// CauseOSMinor is an OS fault satisfied from the page cache (or an
	// anonymous zero-fill) without device I/O.
	CauseOSMinor
	// CauseSWMiss is the SW-only scheme's software-SMU fault.
	CauseSWMiss
	// CauseAnonZeroFill is a first-touch anonymous miss the SMU served
	// without I/O via the reserved LBA constant.
	CauseAnonZeroFill
	// CauseBounced is a hardware miss that degraded to the OS exception
	// path (no free page, or an unrecoverable hardware I/O error).
	CauseBounced
)

// String returns the cause's display name as used in reports and traces.
func (c Cause) String() string {
	switch c {
	case CauseHWMiss:
		return "hw-miss"
	case CauseOSMajor:
		return "os-major"
	case CauseOSMinor:
		return "os-minor"
	case CauseSWMiss:
		return "sw-miss"
	case CauseAnonZeroFill:
		return "anon-zero-fill"
	case CauseBounced:
		return "hw-bounced"
	}
	return "unclassified"
}

// Span is one timed phase of a miss, charged to a layer. Spans are
// half-open [Start, End) intervals of virtual time; a zero-length span is
// an instantaneous marker.
type Span struct {
	Layer Layer
	Name  string
	Start sim.Time
	End   sim.Time
}

// Dur returns the span length.
func (s Span) Dur() sim.Time { return s.End - s.Start }

// Miss is the trace context of one page miss, created by the MMU and
// threaded through every layer that touches the miss. All methods are
// nil-receiver safe so disabled tracing costs a nil check.
type Miss struct {
	// ID is unique within a Tracer, assigned in creation (event) order.
	ID uint64
	// Core is the logical core (hardware thread) whose access missed.
	Core int
	// VA is the faulting virtual address.
	VA uint64
	// Cause is the current classification (see Cause).
	Cause Cause
	// Start and End bound the miss in virtual time; End is zero until the
	// miss finishes.
	Start, End sim.Time
	// Spans are the recorded phases, in recording order.
	Spans []Span
	// Killed marks a miss that ended in a SIGBUS kill.
	Killed bool

	t     *Tracer
	ended bool
}

// AddSpan records one timed phase. No-op on a nil miss.
//
//hwdp:coldpath tracing is off (nil receiver) in steady state; span recording only runs in single-miss experiments
func (m *Miss) AddSpan(layer Layer, name string, start, end sim.Time) {
	if m == nil {
		return
	}
	m.Spans = append(m.Spans, Span{Layer: layer, Name: name, Start: start, End: end})
}

// Mark records an instantaneous marker event. No-op on a nil miss.
//
//hwdp:coldpath tracing is off (nil receiver) in steady state; span recording only runs in single-miss experiments
func (m *Miss) Mark(layer Layer, name string, at sim.Time) {
	m.AddSpan(layer, name, at, at)
}

// SetCause reclassifies the miss. CauseBounced is sticky — once a miss
// bounced from hardware to the OS, the bounce stays the headline cause.
// No-op on a nil miss.
//
//hwdp:coldpath tracing is off (nil receiver) in steady state
func (m *Miss) SetCause(c Cause) {
	if m == nil || m.Cause == CauseBounced {
		return
	}
	m.Cause = c
}

// Finish ends the miss and hands it to the tracer for attribution and
// retention. Idempotent (the first call wins) and nil-safe, so shared
// completion paths may all call it.
//
//hwdp:coldpath tracing is off (nil receiver) in steady state; retirement only runs in single-miss experiments
func (m *Miss) Finish(end sim.Time) {
	if m == nil || m.ended {
		return
	}
	m.ended = true
	m.End = end
	m.t.retire(m)
}

// Total returns the end-to-end miss latency (zero while unfinished).
func (m *Miss) Total() sim.Time {
	if m == nil || !m.ended {
		return 0
	}
	return m.End - m.Start
}

// flightDepth is how many of the latest finished misses the flight
// recorder shows.
const flightDepth = 64

// maxPostmortems bounds how many kill dumps a run retains.
const maxPostmortems = 8

// Tracer collects finished miss records, maintains the per-layer and
// per-phase attribution histograms, and keeps the flight recorder.
// It is single-threaded, like the simulation engine it observes.
type Tracer struct {
	nextID uint64
	misses []*Miss

	postmortems []Postmortem
	kills       uint64

	layerH [numLayers]*metrics.Histogram
	phaseH map[string]*metrics.Histogram
	totalH *metrics.Histogram
	otherH *metrics.Histogram
}

// New returns an empty tracer.
func New() *Tracer {
	t := &Tracer{
		phaseH: make(map[string]*metrics.Histogram),
		totalH: metrics.NewHistogram(),
		otherH: metrics.NewHistogram(),
	}
	for i := range t.layerH {
		t.layerH[i] = metrics.NewHistogram()
	}
	return t
}

// Begin opens a miss context. Returns nil (and does nothing) on a nil
// tracer, so callers never need their own enabled check.
//
//hwdp:coldpath tracing is off (nil tracer) in steady state; per-miss records only exist in single-miss experiments
func (t *Tracer) Begin(core int, va uint64, cause Cause, start sim.Time) *Miss {
	if t == nil {
		return nil
	}
	t.nextID++
	return &Miss{ID: t.nextID, Core: core, VA: va, Cause: cause, Start: start, t: t}
}

// retire attributes and retains a finished miss.
func (t *Tracer) retire(m *Miss) {
	if t == nil {
		return
	}
	var perLayer [numLayers]sim.Time
	for _, s := range m.Spans {
		d := s.Dur()
		perLayer[s.Layer] += d
		key := s.Layer.String() + "/" + s.Name
		h, ok := t.phaseH[key]
		if !ok {
			h = metrics.NewHistogram()
			t.phaseH[key] = h
		}
		h.Record(int64(d))
	}
	var attributed sim.Time
	for l, d := range perLayer {
		if d > 0 {
			t.layerH[l].Record(int64(d))
			attributed += d
		}
	}
	total := m.End - m.Start
	t.totalH.Record(int64(total))
	if rest := total - attributed; rest > 0 {
		t.otherH.Record(int64(rest))
	}
	t.misses = append(t.misses, m)
}

// Misses returns every finished miss, in completion order.
func (t *Tracer) Misses() []*Miss {
	if t == nil {
		return nil
	}
	return t.misses
}

// Kills returns how many traced misses ended in a SIGBUS kill.
func (t *Tracer) Kills() uint64 {
	if t == nil {
		return 0
	}
	return t.kills
}

// Postmortem is a flight-recorder snapshot taken when a miss was killed:
// the kill's context plus the last misses that completed before it.
type Postmortem struct {
	// Reason describes the kill (e.g. "SIGBUS: unrecoverable read").
	Reason string
	// At is the virtual time of the kill.
	At sim.Time
	// Victim is the killed miss (possibly still unfinished at snapshot
	// time — its spans cover the path up to the kill).
	Victim *Miss
	// Recent are the flight-recorder contents at the kill, oldest first.
	Recent []*Miss
}

// String renders the postmortem as a human-readable dump.
func (p Postmortem) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "postmortem @ %v: %s\n", p.At, p.Reason)
	if p.Victim != nil {
		sb.WriteString("  victim:\n")
		renderMiss(&sb, p.Victim, "    ")
	}
	fmt.Fprintf(&sb, "  last %d completed misses:\n", len(p.Recent))
	for _, m := range p.Recent {
		renderMiss(&sb, m, "    ")
	}
	return sb.String()
}

// NoteKill records a SIGBUS kill: the victim miss is marked, and a
// flight-recorder snapshot is retained as a postmortem (up to 8 per run).
// Nil-safe in both receiver and victim.
func (t *Tracer) NoteKill(victim *Miss, reason string, at sim.Time) {
	if t == nil {
		return
	}
	t.kills++
	if victim != nil {
		victim.Killed = true
	}
	if len(t.postmortems) >= maxPostmortems {
		return
	}
	t.postmortems = append(t.postmortems, Postmortem{
		Reason: reason,
		At:     at,
		Victim: victim,
		Recent: t.recent(),
	})
}

// Postmortems returns the retained kill dumps, in kill order.
func (t *Tracer) Postmortems() []Postmortem {
	if t == nil {
		return nil
	}
	return t.postmortems
}

// recent returns the flight recorder: the last flightDepth finished
// misses, oldest first. misses only grows by append, so the window stays
// as it is when later misses retire; its capacity ends at its length, so
// appending to it cannot reach the tracer's record.
func (t *Tracer) recent() []*Miss {
	n := len(t.misses)
	return t.misses[max(0, n-flightDepth):n:n]
}

// FlightDump renders the current flight-recorder contents (the last
// misses to complete) plus any retained postmortems.
func (t *Tracer) FlightDump() string {
	if t == nil {
		return "tracing disabled\n"
	}
	var sb strings.Builder
	recent := t.recent()
	fmt.Fprintf(&sb, "flight recorder: last %d of %d traced misses\n", len(recent), len(t.misses))
	for _, m := range recent {
		renderMiss(&sb, m, "  ")
	}
	for _, p := range t.postmortems {
		sb.WriteString(p.String())
	}
	return sb.String()
}

func renderMiss(sb *strings.Builder, m *Miss, indent string) {
	total := "unfinished"
	if m.ended {
		total = m.Total().String()
	}
	killed := ""
	if m.Killed {
		killed = "  [KILLED]"
	}
	fmt.Fprintf(sb, "%smiss#%d core %d va %#x %s total %s%s\n",
		indent, m.ID, m.Core, m.VA, m.Cause, total, killed)
	for _, s := range m.Spans {
		fmt.Fprintf(sb, "%s  %-6s %-24s %10s  @%v\n",
			indent, s.Layer, s.Name, s.Dur(), s.Start)
	}
}
