package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Percentile(50) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for _, v := range []int64{10, 20, 30, 40, 50} {
		h.Record(v)
	}
	if h.Count() != 5 || h.Sum() != 150 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	if h.Mean() != 30 {
		t.Fatalf("mean = %f", h.Mean())
	}
	if h.Min() != 10 || h.Max() != 50 {
		t.Fatalf("min=%d max=%d", h.Min(), h.Max())
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 {
		t.Fatalf("negative sample not clamped: %d", h.Min())
	}
}

func TestBucketMonotonicProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return bucketIndex(x) <= bucketIndex(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBucketIndexMatchesBitLoop pins bucketIndex against the bit-by-bit
// leading-zero count it replaced, at zero, at every power of two and one
// either side of it, and at MaxInt64.
func TestBucketIndexMatchesBitLoop(t *testing.T) {
	slowLeadingZeros := func(x uint64) int {
		if x == 0 {
			return 64
		}
		n := 0
		for x&(1<<63) == 0 {
			x <<= 1
			n++
		}
		return n
	}
	want := func(v int64) int32 {
		if v < 1<<subBucketBits {
			return int32(v)
		}
		shift := 63 - slowLeadingZeros(uint64(v)) - subBucketBits
		sub := (v >> uint(shift)) & ((1 << subBucketBits) - 1)
		return int32((int64(shift)+1)<<subBucketBits | sub)
	}
	vs := []int64{0, math.MaxInt64}
	for k := 0; k < 63; k++ {
		p := int64(1) << k
		vs = append(vs, p-1, p, p+1)
	}
	for _, v := range vs {
		if got, w := bucketIndex(v), want(v); got != w {
			t.Fatalf("bucketIndex(%d) = %d, want %d", v, got, w)
		}
	}
}

func TestBucketLowInverseProperty(t *testing.T) {
	// bucketLow(bucketIndex(v)) <= v, and relative error < 1/32.
	f := func(a uint32) bool {
		v := int64(a) + 1
		idx := bucketIndex(v)
		lo := bucketLow(idx)
		if lo > v {
			return false
		}
		return float64(v-lo)/float64(v) <= 1.0/16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram()
	var vals []int64
	for i := int64(1); i <= 10000; i++ {
		h.Record(i)
		vals = append(vals, i)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, p := range []float64{10, 50, 90, 99, 99.9} {
		got := h.Percentile(p)
		exact := vals[int(math.Ceil(float64(len(vals))*p/100))-1]
		err := math.Abs(float64(got-exact)) / float64(exact)
		if err > 0.10 {
			t.Errorf("p%.1f = %d, exact %d (err %.2f)", p, got, exact, err)
		}
	}
	if h.Percentile(0) != 1 || h.Percentile(100) != 10000 {
		t.Fatalf("p0=%d p100=%d", h.Percentile(0), h.Percentile(100))
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Record(100)
	b.Record(300)
	b.Record(500)
	a.Merge(b)
	if a.Count() != 3 || a.Sum() != 900 || a.Min() != 100 || a.Max() != 500 {
		t.Fatalf("merge: count=%d sum=%d min=%d max=%d", a.Count(), a.Sum(), a.Min(), a.Max())
	}
	empty := NewHistogram()
	a.Merge(empty)
	if a.Count() != 3 {
		t.Fatal("merging empty changed count")
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(42)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("reset failed")
	}
	h.Record(7)
	if h.Min() != 7 || h.Max() != 7 {
		t.Fatal("post-reset record broken")
	}
}

func TestHistogramLargeValues(t *testing.T) {
	h := NewHistogram()
	big := int64(1) << 50
	h.Record(big)
	got := h.Percentile(50)
	if float64(got) < float64(big)*0.9 {
		t.Fatalf("p50 of single huge sample = %d, want ~%d", got, big)
	}
}

func TestBreakdown(t *testing.T) {
	b := &Breakdown{Unit: "us"}
	b.Add("exception", 0.3)
	b.Add("device", 10.9)
	if math.Abs(b.Total()-11.2) > 1e-9 {
		t.Fatalf("total = %f", b.Total())
	}
	s := b.String()
	if !strings.Contains(s, "exception") || !strings.Contains(s, "TOTAL") {
		t.Fatalf("render: %s", s)
	}
}

func TestBreakdownEmptyTotal(t *testing.T) {
	b := &Breakdown{Unit: "ns"}
	if b.Total() != 0 {
		t.Fatal("empty total should be 0")
	}
	if !strings.Contains(b.String(), "TOTAL") {
		t.Fatal("empty render missing TOTAL")
	}
}

// TestHistogramPercentileInterpolation pins exact quantile values on known
// distributions. Before intra-bucket interpolation, Percentile snapped to
// the bucket's lower bound, understating every quantile by up to one
// bucket width.
func TestHistogramPercentileInterpolation(t *testing.T) {
	cases := []struct {
		name   string
		record func(h *Histogram)
		checks []struct {
			p    float64
			want int64
			tol  int64 // absolute tolerance; 0 means exact
		}
	}{
		{
			name: "uniform 1..1000",
			record: func(h *Histogram) {
				for i := int64(1); i <= 1000; i++ {
					h.Record(i)
				}
			},
			checks: []struct {
				p    float64
				want int64
				tol  int64
			}{
				{50, 500, 1},
				{99, 990, 2},
				{99.9, 999, 2},
			},
		},
		{
			name: "small values are exact", // v < 32 gets its own bucket
			record: func(h *Histogram) {
				for _, v := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
					h.Record(v)
				}
			},
			checks: []struct {
				p    float64
				want int64
				tol  int64
			}{
				{10, 1, 0},
				{50, 5, 0},
				{90, 9, 0},
				{99, 10, 0},
			},
		},
		{
			name: "repeated single value",
			record: func(h *Histogram) {
				for i := 0; i < 100; i++ {
					h.Record(7777)
				}
			},
			checks: []struct {
				p    float64
				want int64
				tol  int64
			}{
				{50, 7777, 0}, // clamped to [min, max]
				{99, 7777, 0},
				{99.9, 7777, 0},
			},
		},
		{
			name: "single huge sample clamps to max",
			record: func(h *Histogram) {
				h.Record(1 << 50)
			},
			checks: []struct {
				p    float64
				want int64
				tol  int64
			}{
				{50, 1 << 50, 0},
				{99.9, 1 << 50, 0},
			},
		},
		{
			name: "bimodal 10/1000",
			record: func(h *Histogram) {
				for i := 0; i < 90; i++ {
					h.Record(10)
				}
				for i := 0; i < 10; i++ {
					h.Record(1000)
				}
			},
			checks: []struct {
				p    float64
				want int64
				tol  int64
			}{
				{50, 10, 0},
				{90, 10, 0},
				{99, 1000, 16}, // one bucket width at 1000 (~1.6%)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram()
			tc.record(h)
			for _, c := range tc.checks {
				got := h.Percentile(c.p)
				if d := got - c.want; d < -c.tol || d > c.tol {
					t.Errorf("p%g = %d, want %d ±%d", c.p, got, c.want, c.tol)
				}
			}
		})
	}
}

// TestHistogramPercentileWithinBucket checks the interpolated value never
// escapes the bucket that contains the target rank, and never escapes
// [min, max].
func TestHistogramPercentileWithinBucket(t *testing.T) {
	h := NewHistogram()
	for i := int64(100); i < 200; i += 3 {
		h.Record(i)
	}
	for p := 1.0; p < 100; p += 0.5 {
		v := h.Percentile(p)
		if v < h.Min() || v > h.Max() {
			t.Fatalf("p%g = %d escapes [%d, %d]", p, v, h.Min(), h.Max())
		}
	}
}

// mapHistogram is the map-backed histogram the row table replaced, kept
// verbatim as the oracle for TestHistogramMatchesMapOracle.
type mapHistogram struct {
	buckets map[int32]uint64
	count   uint64
	sum     int64
	min     int64
	max     int64
}

func newMapHistogram() *mapHistogram {
	return &mapHistogram{buckets: make(map[int32]uint64), min: math.MaxInt64}
}

func (h *mapHistogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

func (h *mapHistogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

func (h *mapHistogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

func (h *mapHistogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

func (h *mapHistogram) Percentile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	target := uint64(math.Ceil(float64(h.count) * p / 100))
	idxs := make([]int32, 0, len(h.buckets))
	for idx := range h.buckets {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	var cum uint64
	for _, idx := range idxs {
		n := h.buckets[idx]
		cum += n
		if cum >= target {
			lo := bucketLow(idx)
			hi := bucketEnd(idx)
			rank := float64(target-(cum-n)) - 0.5
			v := lo + int64(rank/float64(n)*float64(hi-lo))
			if v >= hi {
				v = hi - 1
			}
			if v < lo {
				v = lo
			}
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

func (h *mapHistogram) Reset() {
	h.buckets = make(map[int32]uint64)
	h.count = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

func (h *mapHistogram) Merge(other *mapHistogram) {
	for idx, n := range other.buckets {
		h.buckets[idx] += n
	}
	h.count += other.count
	h.sum += other.sum
	if other.count > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// histPair records every sample into a Histogram and its map oracle.
type histPair struct {
	h *Histogram
	o *mapHistogram
}

func newHistPair() histPair { return histPair{NewHistogram(), newMapHistogram()} }

func (p histPair) record(v int64) {
	p.h.Record(v)
	p.o.Record(v)
}

func (p histPair) merge(q histPair) {
	p.h.Merge(q.h)
	p.o.Merge(q.o)
}

func (p histPair) reset() {
	p.h.Reset()
	p.o.Reset()
}

// check compares every query of the pair.
func (p histPair) check(t *testing.T, what string) {
	t.Helper()
	h, o := p.h, p.o
	if h.Count() != o.count || h.Sum() != o.sum || h.Min() != o.Min() || h.Max() != o.Max() {
		t.Fatalf("%s: count/sum/min/max %d/%d/%d/%d, oracle %d/%d/%d/%d", what,
			h.Count(), h.Sum(), h.Min(), h.Max(), o.count, o.sum, o.Min(), o.Max())
	}
	if h.Mean() != o.Mean() {
		t.Fatalf("%s: mean %v, oracle %v", what, h.Mean(), o.Mean())
	}
	for _, q := range []float64{0, 0.1, 1, 50, 99, 99.9, 100} {
		if got, want := h.Percentile(q), o.Percentile(q); got != want {
			t.Fatalf("%s: p%v = %d, oracle %d", what, q, got, want)
		}
	}
}

// oracleSample draws a sample that is often an edge: 0, a negative, 2^k
// and its neighbours, MaxInt64, or a latency-like value.
func oracleSample(rng *rand.Rand, maxShift int) int64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return -rng.Int63n(1 << 40)
	case 2:
		return math.MaxInt64
	case 3, 4:
		k := uint(rng.Intn(63))
		return int64(1)<<k + int64(rng.Intn(3)) - 1
	default:
		return rng.Int63n(int64(1) << uint(1+rng.Intn(maxShift)))
	}
}

// TestHistogramMatchesMapOracle runs the row-table histogram against the
// map-backed oracle over random samples, merges with disjoint and
// overlapping magnitudes and into an empty histogram, and Reset.
func TestHistogramMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := newHistPair()
		a.check(t, "empty")
		for i, n := 0, rng.Intn(2000); i < n; i++ {
			a.record(oracleSample(rng, 62))
		}
		a.check(t, "recorded")

		// Disjoint magnitudes: b holds only values below 2^10, c only
		// values at 2^40 and above.
		b, c := newHistPair(), newHistPair()
		for i := 0; i < 500; i++ {
			b.record(rng.Int63n(1 << 10))
			c.record(int64(1)<<40 + rng.Int63n(1<<40))
		}
		b.merge(c)
		b.check(t, "disjoint merge")

		// Overlapping magnitudes.
		a.merge(b)
		a.check(t, "overlapping merge")

		// Into an empty histogram, and an empty one into a full one.
		e := newHistPair()
		e.merge(a)
		e.check(t, "merge into empty")
		a.merge(newHistPair())
		a.check(t, "merge of empty")

		a.reset()
		a.check(t, "reset")
		for i := 0; i < 300; i++ {
			a.record(oracleSample(rng, 30))
		}
		a.check(t, "recorded after reset")
	}
}

// TestHistogramRecordAllocationFree pins that Record allocates nothing once
// the rows its samples land in exist.
func TestHistogramRecordAllocationFree(t *testing.T) {
	h := NewHistogram()
	vals := []int64{0, 31, 32, 1000, 11_500_000, 64_377_047, math.MaxInt64}
	for _, v := range vals {
		h.Record(v)
	}
	i := 0
	if a := testing.AllocsPerRun(1000, func() {
		h.Record(vals[i%len(vals)])
		i++
	}); a != 0 {
		t.Fatalf("Record allocates %.1f per sample with its rows in place", a)
	}
}
