// Package ssd is the sharedstate analyzer fixture for sites in the
// hot-path package itself: it exercises every local rule, positive and
// negative, and each site reports at its own line.
package ssd

import (
	"sync"
	"sync/atomic"

	"hwdp/internal/sim"
)

// ErrStub shows initialization at declaration is fine (a sentinel is
// written once, before any unit starts).
var ErrStub = "stub"

// served is package state an unsafe write below targets.
var served uint64

// registry is fixture package state written only from init (allowed).
var registry map[string]int

func init() {
	registry = map[string]int{"a": 1} // runs once at start-up: allowed
}

// Device is the fixture's model component; mutating its own fields is
// the sanctioned pattern and must not be flagged.
type Device struct {
	eng    *sim.Engine
	served uint64
	mu     sync.Mutex
}

func (d *Device) ownState() {
	d.served++ // component-owned field: fine
}

func (d *Device) globalState() {
	served++ // want `model code ssd\.\(Device\)\.globalState: write to package-level variable served \(shared by every machine in the process\)`
}

func (d *Device) globalAssign() {
	served = 7 // want `write to package-level variable served`
}

func (d *Device) locked() {
	d.mu.Lock()         // want `sync\.Lock couples event outcomes to host-scheduler timing`
	defer d.mu.Unlock() // want `sync\.Unlock couples event outcomes to host-scheduler timing`
	d.served++
}

func (d *Device) counted() {
	atomic.AddUint64(&d.served, 1) // want `atomic\.AddUint64 couples event outcomes to host-scheduler timing`
}

func (d *Device) channelled(c chan int) {
	c <- 1 // want `channel send serializes on the host scheduler`
	<-c    // want `channel receive serializes on the host scheduler`
}

func (d *Device) suppressed() {
	served++ //hwdp:ignore sharedstate fixture demonstrates a justified suppression
}
