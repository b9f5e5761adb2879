// Package mmu is the fixture for hotalloc's Post rule: a hot-path
// package scheduling work on the engine in both allocating and
// allocation-free forms, mostly from functions no //hwdp:hotpath root
// reaches.
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
	m.eng.Post(m.lat, func() { m.step() })      //hwdp:ignore hotalloc cold path, fires once per run
}

// hotSchedule is a //hwdp:hotpath root posting a capturing closure: the
// Post rule and the walk see the same site, which reports once.
//
//hwdp:hotpath
func (m *M) hotSchedule() {
	m.eng.Post(m.lat, func() { m.step() }) // want `closure passed to sim\.Engine\.Post captures variable m`
}
