// Package workload provides the evaluation's workload generators — FIO
// random read over mmap, DBBench readrandom, the YCSB A–F mixes with
// standard key distributions, and SPEC-CPU-like compute kernels — plus the
// driver that runs them on simulated threads and collects throughput,
// latency and microarchitectural counters.
package workload

import (
	"math"

	"hwdp/internal/sim"
)

// KeyGen produces keys in [0, n) under some popularity distribution.
type KeyGen interface {
	Next(r *sim.Rand) uint64
}

// Uniform draws keys uniformly — FIO and DBBench readrandom's pattern
// ("their memory access pattern is uniform").
type Uniform struct{ N uint64 }

// Next returns a uniform key.
func (u Uniform) Next(r *sim.Rand) uint64 { return r.Uint64() % u.N }

// Zipfian is the standard YCSB zipfian generator (Gray et al.'s algorithm,
// the one in YCSB's ZipfianGenerator), with constant 0.99.
type Zipfian struct {
	n               uint64
	theta           float64
	alpha, zetan    float64
	eta, zeta2theta float64
	// second is 1 + 0.5^theta, the draw bound below which Next returns
	// item 1.
	second float64
}

// ZipfTheta is YCSB's default skew.
const ZipfTheta = 0.99

// NewZipfian precomputes the zeta constants for n items.
func NewZipfian(n uint64, theta float64) *Zipfian {
	z := &Zipfian{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2theta = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	z.second = 1.0 + math.Pow(0.5, theta)
	return z
}

func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// ZipfWeights returns the normalized zipfian popularity of ranks 0..n-1 at
// the given skew (weights sum to 1; rank 0 is the most popular). The fleet
// layer uses it for tenant intensity: a few hot tenants and a long tail,
// the same heavy-traffic shape the key distributions model.
func ZipfWeights(n int, theta float64) []float64 {
	if n < 1 {
		return nil
	}
	w := make([]float64, n)
	sum := zeta(uint64(n), theta)
	for i := 0; i < n; i++ {
		w[i] = 1 / math.Pow(float64(i+1), theta) / sum
	}
	return w
}

// Next returns a zipf-distributed key with item 0 the most popular.
func (z *Zipfian) Next(r *sim.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.second {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// Scrambled wraps a generator, spreading its popular keys across the whole
// keyspace with a fixed hash — YCSB's "scrambled zipfian", so hot records
// are not physically adjacent.
type Scrambled struct {
	Gen KeyGen
	N   uint64
}

// Next returns the scrambled key.
func (s Scrambled) Next(r *sim.Rand) uint64 {
	k := s.Gen.Next(r)
	// FNV-1a style scramble.
	h := (k ^ 14695981039346656037) * 1099511628211
	return h % s.N
}

// Latest is YCSB's latest distribution: recently inserted keys are the
// most popular (workload D). The insert frontier advances externally via
// SetMax.
type Latest struct {
	z   *Zipfian
	max uint64
}

// NewLatest builds a latest-distribution generator over an initial
// frontier.
func NewLatest(initialMax uint64) *Latest {
	return &Latest{z: NewZipfian(initialMax, ZipfTheta), max: initialMax}
}

// SetMax advances the insert frontier.
//
//hwdp:coldpath rebuilds the generator once per 1024 inserts (YCSB-D)
func (l *Latest) SetMax(m uint64) {
	if m > l.max {
		// Recompute zetan incrementally would be the YCSB approach; at
		// simulation scale a full rebuild on growth steps is fine and the
		// driver batches growth.
		l.z = NewZipfian(m, ZipfTheta)
		l.max = m
	}
}

// Next returns a recency-skewed key below the frontier.
func (l *Latest) Next(r *sim.Rand) uint64 {
	off := l.z.Next(r)
	return l.max - 1 - off
}
