package metrics

import (
	"fmt"
	"strings"
)

// StallKind names one source of memory-pressure stalling, mirroring the
// layers the paper's degradation story crosses: frame allocation (direct
// reclaim), the PMSHR backlog (all 32 slots busy), dirty-writeback
// throttling, and the fleet QoS layer parking requests from tenants over
// their admission caps.
type StallKind int

// Stall kinds tracked by PSI. NumStallKinds bounds the arrays.
const (
	StallAlloc StallKind = iota
	StallPMSHRBacklog
	StallWritebackThrottle
	StallQoSThrottle
	NumStallKinds
)

// String returns the stall kind's display name.
func (k StallKind) String() string {
	switch k {
	case StallAlloc:
		return "alloc"
	case StallPMSHRBacklog:
		return "pmshr-backlog"
	case StallWritebackThrottle:
		return "writeback-throttle"
	case StallQoSThrottle:
		return "qos-throttle"
	}
	return "?"
}

// PSI is pressure-stall-information accounting, modeled on Linux's
// /proc/pressure: for each stall kind it tracks how many stalls began, the
// total task-time spent stalled (the "full" view: each concurrent staller
// accumulates its own wait), and the wall-clock time during which at least
// one task was stalled (the "some" view). Time arguments are raw int64
// simulation timestamps (picoseconds); the metrics package stays free of
// simulator imports so every layer can feed it.
//
// Recording is pure accounting — PSI never schedules events or allocates
// on the hot path — so attaching it to a system cannot perturb event
// ordering or fixed-seed reproducibility.
type PSI struct {
	stalls    [NumStallKinds]uint64 // stall events begun
	taskTime  [NumStallKinds]int64  // summed per-staller stall time
	someTime  [NumStallKinds]int64  // wall time with >= 1 staller
	active    [NumStallKinds]int    // stallers currently waiting
	someSince [NumStallKinds]int64  // when active went 0 -> >0
	lastNow   int64                 // latest timestamp observed (for String)
}

// NewPSI returns empty pressure accounting.
func NewPSI() *PSI { return &PSI{} }

// BeginStall records that one task started waiting on kind at time now.
func (p *PSI) BeginStall(kind StallKind, now int64) {
	if p == nil {
		return
	}
	p.stalls[kind]++
	if p.active[kind] == 0 {
		p.someSince[kind] = now
	}
	p.active[kind]++
	if now > p.lastNow {
		p.lastNow = now
	}
}

// EndStall records that one task stopped waiting on kind at time now,
// having waited since the matching BeginStall. waited is the task's own
// stall duration (the caller tracked its begin time).
func (p *PSI) EndStall(kind StallKind, now, waited int64) {
	if p == nil {
		return
	}
	p.taskTime[kind] += waited
	if p.active[kind] > 0 {
		p.active[kind]--
		if p.active[kind] == 0 {
			p.someTime[kind] += now - p.someSince[kind]
		}
	}
	if now > p.lastNow {
		p.lastNow = now
	}
}

// Stalls returns how many stall events of the kind began.
func (p *PSI) Stalls(kind StallKind) uint64 { return p.stalls[kind] }

// TaskTime returns the summed per-staller stall time for the kind.
func (p *PSI) TaskTime(kind StallKind) int64 { return p.taskTime[kind] }

// SomeTime returns the wall-clock time during which at least one task was
// stalled on the kind. Stalls still open are counted up to the latest
// timestamp PSI has seen.
func (p *PSI) SomeTime(kind StallKind) int64 {
	t := p.someTime[kind]
	if p.active[kind] > 0 {
		t += p.lastNow - p.someSince[kind]
	}
	return t
}

// Active returns how many tasks are currently stalled on the kind.
func (p *PSI) Active(kind StallKind) int { return p.active[kind] }

// String renders the pressure report as an aligned table, one row per
// stall kind, with times in microseconds.
func (p *PSI) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "  %-18s %10s %14s %14s\n", "stall kind", "stalls", "task-time(us)", "some-time(us)")
	for k := StallKind(0); k < NumStallKinds; k++ {
		fmt.Fprintf(&sb, "  %-18s %10d %14.2f %14.2f\n",
			k.String(), p.stalls[k],
			float64(p.TaskTime(k))/1e6, float64(p.SomeTime(k))/1e6)
	}
	return sb.String()
}
