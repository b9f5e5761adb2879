// Package kernel is the simdeterminism analyzer fixture: it lives at a
// hot-path import path and exercises every rule, positive and negative.
// It also carries sharedstate's kernel cases: a goroutine spawn, and a
// kernel function reaching a helper package's package-level write.
package kernel

import (
	"math/rand"
	"sort"
	"time"

	"hwdp/internal/counters"
	"hwdp/internal/metrics"
	"hwdp/internal/sim"
)

// timeout shows that time.Duration constants and arithmetic are fine.
var timeout = 5 * time.Second

// K is the fixture's stand-in for kernel state.
type K struct {
	eng  *sim.Engine
	smus map[uint8]*smuStub
}

type smuStub struct{ id uint8 }

func (s *smuStub) refill(n int) {}

// Depth is a read-only accessor (pure by naming convention).
func (s *smuStub) Depth() int { return 0 }

func tick() {}

func wallClock() time.Duration {
	start := time.Now()          // want `time.Now reads`
	time.Sleep(time.Millisecond) // want `time.Sleep reads`
	return time.Since(start)     // want `time.Since reads`
}

func randomJitter() int {
	return rand.Intn(8) // want `global rand.Intn uses shared`
}

func spawn() {
	go tick() // want `model code kernel\.spawn: go statement starts a host-scheduled goroutine`
}

// countFault reaches package-level state in a helper package: every
// kernel function is a sharedstate walk root.
func (k *K) countFault() {
	counters.Bump(1) // want `model code kernel\.\(K\)\.countFault reaches shared state: counters\.Bump \(kernel\.go:\d+\): write to package-level variable Total`
}

func (k *K) badPost() {
	for id := range k.smus { // want `map iteration order is random, and this loop's body posts events`
		_ = id
		k.eng.Post(sim.Nanosecond, tick)
	}
}

func (k *K) badMetrics() {
	for _, s := range k.smus { // want `map iteration order is random, and this loop's body writes metrics`
		metrics.Add("depth", float64(s.Depth()))
	}
}

func (k *K) badCallback(handlers map[string]func()) {
	for _, fn := range handlers { // want `map iteration order is random, and this loop's body invokes a dynamic callback`
		fn()
	}
}

func (k *K) badIndirect() {
	for id := range k.smus { // want `calls refillOne, which posts events`
		k.refillOne(id)
	}
}

func (k *K) refillOne(id uint8) {
	k.eng.Post(sim.Nanosecond, tick)
}

func (k *K) badCross(mems map[uint8]*sim.Engine) {
	for _, m := range mems { // want `calls into hwdp/internal/sim`
		m.Run()
	}
}

// goodSorted is the sanctioned pattern: collect keys, sort, then act.
func (k *K) goodSorted() {
	ids := make([]int, 0, len(k.smus))
	for id := range k.smus {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		_ = id
		k.eng.Post(sim.Nanosecond, tick)
	}
}

// goodPure reads via pure accessors in map order, which is harmless.
func (k *K) goodPure(mems map[uint8]*sim.Engine) int {
	n := 0
	for _, m := range mems {
		n += int(m.Now())
	}
	return n
}

// suppressed shows a justified waiver.
func (k *K) suppressed() {
	//hwdp:ignore simdeterminism refill is idempotent and order-free here
	for id := range k.smus {
		k.refillOne(id)
	}
}
