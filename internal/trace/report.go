package trace

import (
	"fmt"
	"sort"
	"strings"

	"hwdp/internal/metrics"
	"hwdp/internal/sim"
)

// Report renders the critical-path attribution tables: for each layer, how
// many misses charged time to it and the mean/p50/p99 time-in-layer, plus
// an "unattributed" row (end-to-end latency not covered by any span —
// pipeline stall waits, event-queue slack) and the end-to-end total. A
// second table breaks each layer into its named phases. All rows are
// rendered in a fixed, deterministic order.
func (t *Tracer) Report() string {
	if t == nil {
		return "tracing disabled\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "critical-path attribution over %d traced misses", len(t.misses))
	if t.kills > 0 {
		fmt.Fprintf(&sb, " (%d killed)", t.kills)
	}
	sb.WriteString("\n\n")

	sb.WriteString("time-in-layer per miss:\n")
	fmt.Fprintf(&sb, "  %-14s %8s %12s %12s %12s\n", "layer", "misses", "mean", "p50", "p99")
	for l := Layer(0); l < numLayers; l++ {
		writeHistRow(&sb, l.String(), t.layerH[l])
	}
	writeHistRow(&sb, "unattributed", t.otherH)
	writeHistRow(&sb, "TOTAL (e2e)", t.totalH)

	sb.WriteString("\nper-phase breakdown:\n")
	fmt.Fprintf(&sb, "  %-32s %8s %12s %12s %12s\n", "phase", "count", "mean", "p50", "p99")
	keys := make([]string, 0, len(t.phaseH))
	for k := range t.phaseH {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		writeHistRow32(&sb, k, t.phaseH[k])
	}

	sb.WriteString("\nmisses by cause:\n")
	counts := t.causeCounts()
	for c := Cause(0); c <= CauseBounced; c++ {
		if counts[c] > 0 {
			fmt.Fprintf(&sb, "  %-16s %8d\n", c, counts[c])
		}
	}
	return sb.String()
}

func (t *Tracer) causeCounts() map[Cause]int {
	counts := make(map[Cause]int)
	for _, m := range t.misses {
		counts[m.Cause]++
	}
	return counts
}

func writeHistRow(sb *strings.Builder, label string, h *metrics.Histogram) {
	fmt.Fprintf(sb, "  %-14s %8d %12s %12s %12s\n", label, h.Count(),
		sim.Time(h.Mean()), sim.Time(h.Percentile(50)), sim.Time(h.Percentile(99)))
}

func writeHistRow32(sb *strings.Builder, label string, h *metrics.Histogram) {
	fmt.Fprintf(sb, "  %-32s %8d %12s %12s %12s\n", label, h.Count(),
		sim.Time(h.Mean()), sim.Time(h.Percentile(50)), sim.Time(h.Percentile(99)))
}

// LayerStats exposes the per-layer attribution histogram (per-miss
// time-in-layer, picoseconds) for programmatic use; nil on a nil tracer
// or when no miss charged the layer.
func (t *Tracer) LayerStats(l Layer) *metrics.Histogram {
	if t == nil || l >= numLayers {
		return nil
	}
	return t.layerH[l]
}
