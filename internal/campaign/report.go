package campaign

import (
	"fmt"
	"strings"

	"hwdp/internal/sweep"
)

// Units wraps the scenarios as sweep units. Each unit's Run renders the
// per-scenario report text and returns the scenario's Result as its
// structured result, which the sweep manifest records as the run's
// "data" — also when the audit fails, so a dirty report stays in the
// artifact CI needs to diagnose the failure.
func Units(scenarios []Scenario) []sweep.Unit {
	units := make([]sweep.Unit, len(scenarios))
	for i, sc := range scenarios {
		units[i] = sweep.Unit{
			Name: "campaign/" + sc.Name,
			Kind: "campaign",
			Run: func() (string, any, error) {
				r := Run(sc)
				if len(r.WatchdogViolations) > 0 {
					return "", r, fmt.Errorf("campaign %s: %d watchdog violations, first: %s",
						sc.Name, len(r.WatchdogViolations), r.WatchdogViolations[0])
				}
				if r.LeakedFrames != 0 {
					return "", r, fmt.Errorf("campaign %s: %d frames leaked", sc.Name, r.LeakedFrames)
				}
				return RenderResult(r), r, nil
			},
		}
	}
	return units
}

// RenderResult renders one scenario's degradation report.
func RenderResult(r Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== campaign %s (%s, %.1fx memory) ==\n", r.Name, r.Scheme, r.OversubRatio)
	fmt.Fprintf(&b, "  ops %d (errors %d)  throughput %.0f ops/s\n", r.Ops, r.Errors, r.Throughput)
	fmt.Fprintf(&b, "  latency us: p50 %.2f  p99 %.2f  p99.9 %.2f\n", r.P50US, r.P99US, r.P999US)
	fmt.Fprintf(&b, "  fallback rate %.4f  evictions %d  writebacks %d  backlog waits %d\n",
		r.FallbackRate, r.Evictions, r.Writebacks, r.BacklogWaits)
	fmt.Fprintf(&b, "  pressure: alloc stalls %d  throttled writes %d  flusher %d/%d  block timeouts %d  retries %d\n",
		r.AllocStalls, r.ThrottledWrites, r.FlusherRuns, r.FlusherPages, r.BlockTimeouts, r.BlockRetries)
	fmt.Fprintf(&b, "  oom: kills %d  reaped pages %d\n", r.OOMKills, r.OOMReapedPages)
	for _, row := range r.PSI {
		if row.Stalls == 0 {
			continue
		}
		fmt.Fprintf(&b, "  psi %-18s stalls %6d  task %10.2fus  some %10.2fus\n",
			row.Kind, row.Stalls, row.TaskTimeUS, row.SomeTimeUS)
	}
	fmt.Fprintf(&b, "  audit: watchdog ticks %d  violations %d  leaked frames %d\n",
		r.WatchdogRuns, len(r.WatchdogViolations), r.LeakedFrames)
	return b.String()
}

// RenderComparison renders the beyond-paper degradation figure: tail
// latency (p99.9) and OS-fallback rate for hardware vs OS demand paging
// as oversubscription grows, from the campaign's ladder scenarios.
func RenderComparison(results []Result) string {
	type cell struct {
		p999     float64
		fallback float64
		oomKills uint64
		ok       bool
	}
	byKey := map[string]cell{}
	var ratios []float64
	var schemes []string
	seenRatio := map[float64]bool{}
	seenScheme := map[string]bool{}
	for _, r := range results {
		if r.Kind != "ladder" {
			continue
		}
		byKey[fmt.Sprintf("%s|%.3f", r.Scheme, r.OversubRatio)] = cell{
			p999: r.P999US, fallback: r.FallbackRate, oomKills: r.OOMKills, ok: true,
		}
		if !seenRatio[r.OversubRatio] {
			seenRatio[r.OversubRatio] = true
			ratios = append(ratios, r.OversubRatio)
		}
		if !seenScheme[r.Scheme] {
			seenScheme[r.Scheme] = true
			schemes = append(schemes, r.Scheme)
		}
	}
	var b strings.Builder
	b.WriteString("== Graceful degradation under oversubscription (fault storm) ==\n")
	b.WriteString("   p99.9 access latency (us) and OS-fallback rate by memory ratio\n\n")
	fmt.Fprintf(&b, "   %-8s", "ratio")
	for _, s := range schemes {
		fmt.Fprintf(&b, " %14s %14s", s+" p99.9", s+" fallback")
	}
	b.WriteString("\n")
	for _, ratio := range ratios {
		fmt.Fprintf(&b, "   %-8.1f", ratio)
		for _, s := range schemes {
			c := byKey[fmt.Sprintf("%s|%.3f", s, ratio)]
			if !c.ok {
				fmt.Fprintf(&b, " %14s %14s", "-", "-")
				continue
			}
			fmt.Fprintf(&b, " %14.2f %14.4f", c.p999, c.fallback)
		}
		b.WriteString("\n")
	}
	b.WriteString("\n   (fallback rate: fraction of hardware misses bounced to the OS\n")
	b.WriteString("    fault handler; OSDP takes every miss in software, so its rate\n")
	b.WriteString("    is 0 by construction. Latency-exact comparison: see fig/12.)\n")
	return b.String()
}
