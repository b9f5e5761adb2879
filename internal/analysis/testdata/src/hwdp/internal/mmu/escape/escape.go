// Package escape is the sharedstate fixture for sites reached across a
// package boundary: a hot-path model package (every function in the mmu/
// subtree is a walk root) whose functions reach host-global state through
// a helper package outside the hot path.
package escape

import (
	"hwdp/internal/counters"
	"hwdp/internal/sim"
)

// Walker is the fixture's model component.
type Walker struct {
	eng  *sim.Engine
	hits uint64
}

// CountMiss reaches a package-level write one call away.
func (w *Walker) CountMiss() {
	counters.Bump(1) // want `model code mmu/escape\.\(Walker\)\.CountMiss reaches shared state: counters\.Bump \(escape\.go:\d+\): write to package-level variable Total \(shared by every machine in the process\) at counters\.go:\d+`
}

// LockedCount reaches host synchronization two calls away; the lock, the
// write, and the unlock each report at the first hop out of the root.
func (w *Walker) LockedCount() {
	w.tally() // want `model code mmu/escape\.\(Walker\)\.LockedCount reaches shared state: mmu/escape\.\(Walker\)\.tally \(escape\.go:\d+\) -> counters\.Locked \(escape\.go:\d+\): sync\.Lock couples event outcomes to host-scheduler timing at counters\.go:\d+` `write to package-level variable Total` `sync\.Unlock couples event outcomes to host-scheduler timing`
}

func (w *Walker) tally() {
	counters.Locked(1)
}

// Detach hands a callback to a helper that launches a goroutine.
func (w *Walker) Detach(fn func()) {
	counters.Spawn(fn) // want `model code mmu/escape\.\(Walker\)\.Detach reaches shared state: counters\.Spawn \(escape\.go:\d+\): go statement starts a host-scheduled goroutine at counters\.go:\d+`
}

// Deliver is clean: the hand-off is an engine event.
func (w *Walker) Deliver(d sim.Time) {
	w.eng.Post(d, nothing)
}

func nothing() {}
