package main

import (
	"container/heap"
	"runtime"
	"time"
)

// refNominalS is refLoop's time, in seconds, on the host the numbers in
// README.md were taken on (2 vCPUs of an Intel Xeon) in a quiet minute.
// Calibrated seconds are wall seconds times refNominalS over refLoop's time
// measured beside them, so they read as that host's seconds.
const refNominalS = 0.30

// hostTimes are the metrics holding host seconds; each rep's values are
// calibrated.
var hostTimes = []string{"run_s", "setup_s", "core.setup_s", "fs.setup_s"}

// calibrate rescales x's host times to the reference host speed, given
// refS, refLoop's time around the rep. The host's speed drifts with the load
// of its neighbours by tens of percent over minutes; refLoop slows with it,
// so the ratio of the two holds where neither does. The raw wall time of
// the run call and refS stay as per-layer metrics.
func (x rep) calibrate(refS float64) {
	x.add("bench.run_wall_s", x.vals["run_s"][0])
	x.add("bench.ref_s", refS)
	f := refNominalS / refS
	for _, k := range hostTimes {
		for i := range x.vals[k] {
			x.vals[k][i] *= f
		}
	}
	x.add("sim.events_per_s", x.vals["sim.events"][0]/x.vals["run_s"][0])
}

// refSink keeps refLoop's results live, so the compiler cannot drop its work.
var refSink uint64

// refLoop does a fixed amount of work shaped like the simulator's host
// profile (random map lookups over a heap larger than the caches, 4 KiB
// buffers allocated and written, a priority queue of boxed values) and
// returns its host seconds. It uses no repository code, so a change to the
// simulator cannot move it.
func refLoop() float64 {
	runtime.GC()
	start := time.Now()
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	const keys = 1000000
	m := make(map[uint64]uint64)
	for i := 0; i < 800000; i++ {
		m[next()%keys] += uint64(i)
		refSink += m[next()%keys]
	}
	var bufs [][]byte
	for i := 0; i < 80000; i++ {
		b := make([]byte, 4096)
		for j := 0; j < len(b); j += 64 {
			b[j] = byte(next())
		}
		bufs = append(bufs, b)
		if len(bufs) > 2000 {
			bufs = bufs[1000:]
		}
	}
	q := &refQueue{}
	for i := 0; i < 600000; i++ {
		heap.Push(q, next())
		if q.Len() > 50000 {
			refSink += heap.Pop(q).(uint64)
		}
	}
	return time.Since(start).Seconds()
}

// refQueue is a min-heap of uint64 for container/heap.
type refQueue []uint64

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i] < q[j] }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }

// Push implements heap.Interface.
func (q *refQueue) Push(v any) { *q = append(*q, v.(uint64)) }

// Pop implements heap.Interface.
func (q *refQueue) Pop() any {
	old := *q
	v := old[len(old)-1]
	*q = old[:len(old)-1]
	return v
}
