// Package counters is the sharedstate fixture helper: host-side global
// bookkeeping that model code must not reach. It sits outside the
// hot-path packages, so its functions are not walk roots; only the walk
// from a model package finds these sites.
package counters

import "sync"

// Total is the global the fixture reaches through a call chain.
var Total uint64

var mu sync.Mutex

// Bump writes a package-level variable.
func Bump(n uint64) {
	Total += n
}

// Locked takes a host lock around the same write.
func Locked(n uint64) {
	mu.Lock()
	Total += n
	mu.Unlock()
}

// Spawn starts a host-scheduled goroutine.
func Spawn(fn func()) {
	go fn()
}
