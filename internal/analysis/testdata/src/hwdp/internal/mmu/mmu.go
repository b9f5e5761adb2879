// Package mmu is the eventcapture analyzer fixture: a hot-path package
// scheduling work on the engine in both allocating and allocation-free
// forms.
package mmu

import "hwdp/internal/sim"

// M is a fixture component with an engine and a latency.
type M struct {
	eng *sim.Engine
	lat sim.Time
}

func (m *M) step()          {}
func (m *M) handle(arg any) {}

func noop() {}

func (m *M) schedule(va uint64, done func(uint64)) {
	m.eng.Post(m.lat, noop)                     // ok: package-level function value
	m.eng.Post(m.lat, func() { done(va) })      // want `captures variables done, va`
	m.eng.Post(m.lat, func() { m.step() })      // want `captures variable m`
	m.eng.Post(m.lat, func() { println("ok") }) // ok: captures nothing
	m.eng.PostArg(m.lat, m.handle, va)          // ok: the pooled form
	m.eng.Post(m.lat, func() { m.step() })      //hwdp:ignore eventcapture cold path, fires once per run
}
