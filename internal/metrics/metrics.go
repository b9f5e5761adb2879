// Package metrics provides the counters and latency histograms used to
// report every figure in the evaluation. Histograms use logarithmic
// bucketing (HDR-style: power-of-two magnitude, linear sub-buckets) so
// percentiles over nanosecond-to-millisecond latencies stay accurate with
// bounded memory.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Counter is a monotonically increasing event count.
type Counter struct{ n uint64 }

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

const subBucketBits = 5 // 32 linear sub-buckets per power of two

// rowCount is the number of bucket rows: row 0 holds the values 0..31,
// and row r >= 1 the 32 sub-buckets of magnitude [2^(r+4), 2^(r+5)), up to
// MaxInt64 in row 58.
const rowCount = 64 - subBucketBits

// row is the 32 linear sub-bucket counters of one power of two.
type row [1 << subBucketBits]uint64

// Histogram records non-negative int64 samples (latencies in picoseconds)
// with ~3% relative bucket error. Bucket idx's count lives in row
// idx>>subBucketBits, which is allocated when its first sample arrives;
// rowAt maps a row number to its place in rows, so an empty histogram is
// small and a latency histogram holds the few rows its samples span.
type Histogram struct {
	rowAt [rowCount]uint8 // row r is rows[rowAt[r]-1]; 0: r has no samples
	rows  []*row
	count uint64
	sum   int64
	min   int64
	max   int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

func bucketIndex(v int64) int32 {
	if v < 0 {
		v = 0
	}
	if v < 1<<subBucketBits {
		return int32(v)
	}
	msb := 63 - bits.LeadingZeros64(uint64(v))
	shift := msb - subBucketBits
	sub := (v >> uint(shift)) & ((1 << subBucketBits) - 1)
	return int32((int64(shift)+1)<<subBucketBits | sub)
}

func bucketLow(idx int32) int64 {
	if idx < 1<<subBucketBits {
		return int64(idx)
	}
	shift := int64(idx>>subBucketBits) - 1
	sub := int64(idx & ((1 << subBucketBits) - 1))
	return (1<<subBucketBits | sub) << uint(shift)
}

// row returns row r, allocating it on its first sample.
func (h *Histogram) row(r int32) *row {
	if h.rowAt[r] == 0 {
		h.newRow(r)
	}
	return h.rows[h.rowAt[r]-1]
}

// newRow allocates row r.
//
//hwdp:coldpath runs at most once per power-of-two magnitude (59 rows) over a histogram's life
func (h *Histogram) newRow(r int32) {
	h.rows = append(h.rows, new(row))
	h.rowAt[r] = uint8(len(h.rows))
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	h.row(idx >> subBucketBits)[idx&(1<<subBucketBits-1)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the sample mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest sample, or 0 for an empty histogram.
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample, or 0 for an empty histogram.
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// bucketEnd returns the exclusive upper bound of bucket idx. Indices are
// contiguous, so this is just the next bucket's lower bound.
func bucketEnd(idx int32) int64 { return bucketLow(idx + 1) }

// Percentile returns the approximate p-th percentile (p in [0,100]).
// Within the bucket containing the target rank, the value is linearly
// interpolated assuming samples are evenly spread over the bucket, so
// quantiles no longer snap to bucket lower bounds (which understated
// p50/p99 by up to one bucket width, ~3%).
func (h *Histogram) Percentile(p float64) int64 {
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
	var cum uint64
	for r, at := range h.rowAt {
		if at == 0 {
			continue
		}
		for sub, n := range h.rows[at-1] {
			if n == 0 {
				continue
			}
			cum += n
			if cum < target {
				continue
			}
			idx := int32(r)<<subBucketBits | int32(sub)
			lo := bucketLow(idx)
			hi := bucketEnd(idx)
			// The target rank is sample (target - cumBefore) of the n in
			// this bucket; treat each as sitting at the midpoint of its
			// 1/n slice of [lo, hi).
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

// Reset clears all samples, keeping the rows allocated.
func (h *Histogram) Reset() {
	for _, rw := range h.rows {
		*rw = row{}
	}
	h.count = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	for r, at := range other.rowAt {
		if at == 0 {
			continue
		}
		dst := h.row(int32(r))
		for sub, n := range other.rows[at-1] {
			dst[sub] += n
		}
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

// Recovery aggregates the per-layer error-recovery counters of one run:
// what the injector put in, and what each layer — device, SMU, block
// layer, fault handler — did to absorb it. It is the one-stop report for
// fault-storm experiments.
type Recovery struct {
	// Injected faults, by kind (device boundary).
	InjectedTransient uint64
	InjectedUECC      uint64
	InjectedDrops     uint64
	InjectedSpikes    uint64
	DeviceAborts      uint64 // host aborts that canceled an in-flight command

	// SMU hardware recovery.
	SMURetries        uint64 // command resubmissions with backoff
	SMUTimeouts       uint64 // completion timeouts (lost commands)
	SMUIOErrors       uint64 // error completions the SMU observed
	SMUUECCFailures   uint64 // unrecoverable media errors on the SMU path
	SMUFramesRecycled uint64 // popped frames returned to the free queue

	// OS block layer and fault handler.
	BlockRetries    uint64
	BlockTimeouts   uint64
	HWBounceFaults  uint64 // walks degraded from hardware to the OS path
	SIGBUSKills     uint64
	WritebackErrors uint64

	// PMSHR backlog wait-time distribution (requests that found all PMSHR
	// slots busy and waited for one). The fields summarize the histogram
	// recorded by the SMU so Recovery stays a flat comparable value; the
	// full distribution is available from the system's BacklogWait
	// histogram.
	BacklogWaits     uint64 // requests that waited for a PMSHR slot
	BacklogWaitP50PS int64  // median wait, picoseconds
	BacklogWaitP99PS int64  // p99 wait, picoseconds
	BacklogWaitMaxPS int64  // worst wait, picoseconds
}

// SetBacklogWait fills the backlog-wait summary fields from the recorded
// wait-time histogram (nil or empty leaves them zero).
func (r *Recovery) SetBacklogWait(h *Histogram) {
	if h == nil || h.Count() == 0 {
		return
	}
	r.BacklogWaits = h.Count()
	r.BacklogWaitP50PS = h.Percentile(50)
	r.BacklogWaitP99PS = h.Percentile(99)
	r.BacklogWaitMaxPS = h.Max()
}

// String renders the recovery report as an aligned two-column table.
func (r Recovery) String() string {
	rows := []struct {
		label string
		v     uint64
	}{
		{"injected transient", r.InjectedTransient},
		{"injected UECC", r.InjectedUECC},
		{"injected drops", r.InjectedDrops},
		{"injected spikes", r.InjectedSpikes},
		{"device aborts", r.DeviceAborts},
		{"SMU retries", r.SMURetries},
		{"SMU timeouts", r.SMUTimeouts},
		{"SMU I/O errors", r.SMUIOErrors},
		{"SMU UECC failures", r.SMUUECCFailures},
		{"SMU frames recycled", r.SMUFramesRecycled},
		{"block-layer retries", r.BlockRetries},
		{"block-layer timeouts", r.BlockTimeouts},
		{"HW-bounced faults", r.HWBounceFaults},
		{"SIGBUS kills", r.SIGBUSKills},
		{"writeback errors", r.WritebackErrors},
		{"PMSHR backlog waits", r.BacklogWaits},
	}
	width := 0
	for _, row := range rows {
		if len(row.label) > width {
			width = len(row.label)
		}
	}
	var sb strings.Builder
	for _, row := range rows {
		fmt.Fprintf(&sb, "  %-*s %12d\n", width, row.label, row.v)
	}
	if r.BacklogWaits > 0 {
		fmt.Fprintf(&sb, "  %-*s p50 %.2fus  p99 %.2fus  max %.2fus\n",
			width, "backlog wait", float64(r.BacklogWaitP50PS)/1e6,
			float64(r.BacklogWaitP99PS)/1e6, float64(r.BacklogWaitMaxPS)/1e6)
	}
	return sb.String()
}

// Breakdown is an ordered list of named component values; it renders the
// stacked-bar figures of the paper (Figs. 1, 3, 11, 15) as text tables.
type Breakdown struct {
	Labels []string
	Values []float64
	Unit   string
}

// Add appends one component.
func (b *Breakdown) Add(label string, v float64) {
	b.Labels = append(b.Labels, label)
	b.Values = append(b.Values, v)
}

// Total returns the sum of all components.
func (b *Breakdown) Total() float64 {
	var t float64
	for _, v := range b.Values {
		t += v
	}
	return t
}

// String renders the breakdown as an aligned table with per-component
// percentages of the total.
func (b *Breakdown) String() string {
	var sb strings.Builder
	total := b.Total()
	width := 0
	for _, l := range b.Labels {
		if len(l) > width {
			width = len(l)
		}
	}
	for i, l := range b.Labels {
		pct := 0.0
		if total != 0 {
			pct = 100 * b.Values[i] / total
		}
		fmt.Fprintf(&sb, "  %-*s %12.3f %-4s (%5.1f%%)\n", width, l, b.Values[i], b.Unit, pct)
	}
	fmt.Fprintf(&sb, "  %-*s %12.3f %s\n", width, "TOTAL", total, b.Unit)
	return sb.String()
}
