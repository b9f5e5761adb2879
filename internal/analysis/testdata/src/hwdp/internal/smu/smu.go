// Package smu is the hotalloc analyzer fixture: a miniature of the real
// miss-path pipeline (the shape BenchmarkHandleMiss drives), with heap
// allocations planted at every distance from the //hwdp:hotpath roots —
// in the root itself, and transitively through a pipeline stage into a
// helper package — plus each exemption the analyzer honors (coldpath
// stops, waived sim.Pool growth, panic arguments, atom-site waivers).
package smu

import (
	"hwdp/internal/sim"
	"hwdp/internal/smu/deep"
)

// SMU is the fixture's miss handler.
type SMU struct {
	name    string
	scratch []int
	entries sim.Pool[entry]
	byVA    map[uint64]int
}

type entry struct{ va uint64 }

// HandleMiss mirrors the real miss-path root: the planted allocation sits
// two hops away, behind an unannotated pipeline stage in another package.
//
//hwdp:hotpath
func (s *SMU) HandleMiss(va uint64) {
	s.admit(va) // want `hot path smu\.\(SMU\)\.HandleMiss reaches a heap allocation: smu\.\(SMU\)\.admit \(smu\.go:\d+\) -> smu/deep\.Record \(smu\.go:\d+\): append may grow the backing array at deep\.go:\d+`
}

// admit is the intermediate pipeline stage: not annotated, reached from
// the root only through the callgraph facts.
func (s *SMU) admit(va uint64) {
	deep.Record(va)
}

// localAlloc plants allocations directly in the hot function: these
// report at their own site, with no chain.
//
//hwdp:hotpath
func (s *SMU) localAlloc(n int) {
	buf := make([]int, n) // want `hot path smu\.\(SMU\)\.localAlloc: make of slice type allocates`
	s.scratch = buf
}

// bindLate allocates a closure environment on the hot path.
//
//hwdp:hotpath
func (s *SMU) bindLate(va uint64) {
	fn := func() { s.scratch[0] = int(va) } // want `hot path smu\.\(SMU\)\.bindLate: closure capturing s, va allocates its environment per call`
	fn()
}

// boxes hands a scalar to an any-typed sink: interface boxing allocates.
//
//hwdp:hotpath
func (s *SMU) boxes(va uint64) {
	sink(va) // want `hot path smu\.\(SMU\)\.boxes: uint64 value boxed into any \(heap-allocated interface data\)`
}

func sink(v any) {}

// coldFail is the failure path off the steady state; its string
// concatenation never reports because the hotalloc walk stops here.
//
//hwdp:coldpath fixture: failure diagnostics, off the steady-state path
func (s *SMU) coldFail() string {
	return "miss failed on " + s.name
}

// guarded is clean: its only allocating callee is marked coldpath.
//
//hwdp:hotpath
func (s *SMU) guarded(va uint64) {
	if va == 0 {
		_ = s.coldFail()
	}
}

// pooled is clean: it allocates only through sim.Pool, whose growth
// sites carry waivers in the sim package.
//
//hwdp:hotpath
func (s *SMU) pooled(va uint64) {
	e := s.entries.Get()
	e.va = va
	s.entries.Put(e)
}

// guardrail is clean: allocations feeding a panic are failure-path
// formatting, not steady-state heap traffic.
//
//hwdp:hotpath
func (s *SMU) guardrail(va uint64) {
	if va == 0 {
		panic("zero va on " + s.name)
	}
}

// waived carries an atom-site suppression: the append never enters the
// facts, and the waiver is marked used (so no stale-suppression report).
//
//hwdp:hotpath
func (s *SMU) waived(va uint64) {
	//hwdp:ignore hotalloc fixture: amortized growth, backing array recycled by the drain path
	s.scratch = append(s.scratch, int(va))
}

// index stores into a map on the hot path: inserting a key can grow the
// map, whatever the store's operator.
//
//hwdp:hotpath
func (s *SMU) index(va uint64) {
	s.byVA[va] = 1    // want `hot path smu\.\(SMU\)\.index: store into map map\[uint64\]int may grow it`
	s.byVA[va+1]++    // want `hot path smu\.\(SMU\)\.index: store into map map\[uint64\]int may grow it`
	s.byVA[va+2] += 2 // want `hot path smu\.\(SMU\)\.index: store into map map\[uint64\]int may grow it`
	_ = s.byVA[va]    // a read never allocates
	delete(s.byVA, va)
}

// indexWaived carries an atom-site waiver for its map store.
//
//hwdp:hotpath
func (s *SMU) indexWaived(va uint64) {
	//hwdp:ignore hotalloc fixture: the key is always present, so the store never grows the map
	s.byVA[va] = 2
}

// badCold is missing the mandatory reason.
//
//hwdp:coldpath
func (s *SMU) badCold() {} // want `//hwdp:coldpath needs a reason: say why badCold is off the steady-state path`

// confused carries both directives.
//
//hwdp:hotpath
//hwdp:coldpath fixture: cannot be both
func (s *SMU) confused() {} // want `confused is marked both //hwdp:hotpath and //hwdp:coldpath — pick one`
