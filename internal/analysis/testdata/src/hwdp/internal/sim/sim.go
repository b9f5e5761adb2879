// Package sim is the analyzer-fixture stub of the real discrete-event
// substrate. It reuses the real import path so the analyzers' package and
// type gates (sim.Time, sim.Engine) behave identically under test.
package sim

import "time"

// Time is a duration or instant in picoseconds (stub).
type Time int64

// Duration units (stub).
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
)

// Cycles converts CPU cycles to a duration (stub).
func Cycles(n int64) Time { return Time(n) * 357 }

// Micro builds a duration from fractional microseconds (stub).
func Micro(us float64) Time { return Time(us * float64(Microsecond)) }

// Nano builds a duration from fractional nanoseconds (stub).
func Nano(ns float64) Time { return Time(ns * float64(Nanosecond)) }

// FromDuration rescales a time.Duration (ns) to sim.Time (ps) (stub).
func FromDuration(d time.Duration) Time { return Time(d) * 1000 }

// Event is a scheduled callback (stub).
type Event struct{}

// Engine is the event queue (stub: signatures only).
type Engine struct{}

// Now returns the virtual clock (stub).
func (e *Engine) Now() Time { return 0 }

// Run drains the queue (stub).
func (e *Engine) Run() {}

// AtArgPooled schedules fn(arg) at t with a pooled event (stub).
func (e *Engine) AtArgPooled(t Time, fn func(any), arg any) *Event { return nil }

// Post schedules fn after d with a pooled event (stub).
func (e *Engine) Post(d Time, fn func()) {}

// PostArg schedules fn(arg) after d with a pooled event (stub).
func (e *Engine) PostArg(d Time, fn func(any), arg any) {}
