package fleet

import (
	"fmt"
	"strings"
)

// RenderResult renders one experiment's per-tenant SLO report.
func RenderResult(r Result) string {
	var b strings.Builder
	qos := "off"
	if r.QoS {
		qos = "on"
	}
	fmt.Fprintf(&b, "== fleet %s (%d tenants, %d sockets, skew %.2f, qos %s) ==\n",
		r.Name, r.Tenants, r.Sockets, r.Skew, qos)
	fmt.Fprintf(&b, "  ops %d (errors %d)  throughput %.0f ops/s  throttles %d",
		r.Ops, r.Errors, r.Throughput, r.Throttles)
	if r.Throttles > 0 {
		fmt.Fprintf(&b, " (wait p99 %.2fus)", r.QoSWaitP99)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  %-7s %3s %3s %7s %9s %9s %9s %9s %9s %9s %9s  %s\n",
		"tenant", "sk", "th", "weight", "ops", "hw-miss", "throttle",
		"fallback", "p50us", "p99us", "p99.9us", "slo")
	for _, row := range r.Rows {
		slo := "MET"
		if !row.SLOMet {
			slo = "violated"
		}
		fmt.Fprintf(&b, "  %-7d %3d %3d %7.3f %9d %9d %9d %9d %9.2f %9.2f %9.2f  %s\n",
			row.Tenant, row.Socket, row.Threads, row.Weight, row.Ops,
			row.HandledHW, row.Throttled, row.Fallbacks,
			row.P50US, row.P99US, row.P999US, slo)
	}
	fmt.Fprintf(&b, "  slo: %d/%d tenants within p99.9 <= %.0fus  victim p99.9 %.2fus\n",
		r.SLOMet, len(r.Rows), r.Rows[0].SLOTargetUS, r.VictimP999US)
	return b.String()
}

// RenderComparison renders the noisy-neighbor isolation figure: the victim
// tenant's p99.9 with QoS off vs on across the skew ladder, and the
// improvement factor isolation buys.
func RenderComparison(results []Result) string {
	type cell struct {
		p999      float64
		victimOps uint64
		ok        bool
	}
	byKey := map[string]cell{}
	var skews []float64
	seen := map[float64]bool{}
	for _, r := range results {
		victimOps := uint64(0)
		if n := len(r.Rows); n > 0 {
			victimOps = r.Rows[n-1].Ops
		}
		byKey[fmt.Sprintf("%v|%.3f", r.QoS, r.Skew)] = cell{
			p999: r.VictimP999US, victimOps: victimOps, ok: true,
		}
		if !seen[r.Skew] {
			seen[r.Skew] = true
			skews = append(skews, r.Skew)
		}
	}
	var b strings.Builder
	b.WriteString("== Noisy-neighbor isolation (victim tenant p99.9, us) ==\n")
	fmt.Fprintf(&b, "   %-10s %14s %14s %12s %12s %12s\n",
		"skew", "qos-off p99.9", "qos-on p99.9", "improvement",
		"ops (off)", "ops (on)")
	for _, skew := range skews {
		off := byKey[fmt.Sprintf("false|%.3f", skew)]
		on := byKey[fmt.Sprintf("true|%.3f", skew)]
		if !off.ok || !on.ok {
			continue
		}
		imp := "-"
		if on.p999 > 0 {
			imp = fmt.Sprintf("%.2fx", off.p999/on.p999)
		}
		fmt.Fprintf(&b, "   %-10.2f %14.2f %14.2f %12s %12d %12d\n",
			skew, off.p999, on.p999, imp, off.victimOps, on.victimOps)
	}
	b.WriteString("\n   (victim = least-weighted tenant. QoS off is today's FIFO\n")
	b.WriteString("    admission; QoS on arms equal-weight fair admission at each\n")
	b.WriteString("    socket's SMU. Fixed seed; deterministic. See docs/FLEET.md.)\n")
	return b.String()
}
