package figures

import (
	"fmt"

	"hwdp/internal/sweep"
)

// Units decomposes the full `-all` regeneration — tables first, then
// every figure in the usage order — into named sweep units for the
// internal/sweep scheduler. Each unit builds its own System from the
// given Params, so units are independent and safe to run concurrently.
// Figure and table units return only text, no structured result.
//
// Fig. 13 dominates the aggregate runtime (8 workloads × thread sweep ×
// 2 schemes), so it is sharded into one unit per workload
// (fig/13/<workload>); the shards' row blocks concatenate back into the
// byte-identical sequential table, and a shard failure loses only that
// workload's rows.
//
// The threads slice restricts Fig. 13's thread sweep, exactly like the
// -threads flag; nil means the default 1,2,4,8.
func Units(p Params, threads []int) []sweep.Unit {
	table := func(name string, render func() string) sweep.Unit {
		return sweep.Unit{
			Name: "table/" + name, Kind: "table",
			Run: func() (string, any, error) { return render() + "\n", nil, nil },
		}
	}
	figure := func(name string, run func() (fmt.Stringer, error)) sweep.Unit {
		return sweep.Unit{
			Name: "fig/" + name, Kind: "figure",
			Run: func() (string, any, error) {
				r, err := run()
				if err != nil {
					return "", nil, err
				}
				// The trailing newline matches fmt.Println on the
				// sequential path, keeping one blank line between units.
				return r.String() + "\n", nil, nil
			},
		}
	}
	fig13Shard := func(i int) sweep.Unit {
		workload := Fig13Workloads[i]
		first, last := i == 0, i == len(Fig13Workloads)-1
		return sweep.Unit{
			Name: "fig/13/" + workload, Kind: "figure",
			Run: func() (string, any, error) {
				cells, err := fig13Workload(p, workload, fig13Threads(threads))
				if err != nil {
					return "", nil, err
				}
				out := fig13Rows(cells)
				if first {
					out = fig13Header + out
				}
				if last {
					// Footer plus the blank-line separator every figure
					// unit ends with.
					out += fig13Footer + "\n"
				}
				return out, nil, nil
			},
		}
	}
	units := []sweep.Unit{
		table("1", TableI),
		table("2", func() string { return TableII(p) }),
		table("area", AreaTable),
		figure("1", func() (fmt.Stringer, error) { return Fig1(p) }),
		figure("2", func() (fmt.Stringer, error) { return Fig2(), nil }),
		figure("3", func() (fmt.Stringer, error) { return Fig3(p) }),
		figure("4", func() (fmt.Stringer, error) { return Fig4(p) }),
		figure("11", func() (fmt.Stringer, error) { return Fig11(p) }),
		figure("12", func() (fmt.Stringer, error) { return Fig12(p) }),
	}
	for i := range Fig13Workloads {
		units = append(units, fig13Shard(i))
	}
	return append(units,
		figure("14", func() (fmt.Stringer, error) { return Fig14(p) }),
		figure("15", func() (fmt.Stringer, error) { return Fig15(p) }),
		figure("16", func() (fmt.Stringer, error) { return Fig16(p) }),
		figure("17", func() (fmt.Stringer, error) { return Fig17(p) }),
		figure("kpoold", func() (fmt.Stringer, error) { return KpooldAblation(p) }),
		figure("pmshr", func() (fmt.Stringer, error) { return AblationPMSHR(p) }),
		figure("devices", func() (fmt.Stringer, error) { return AblationDeviceSweep(p) }),
		figure("prefetch", func() (fmt.Stringer, error) { return AblationPrefetch(p) }),
		figure("ssd", func() (fmt.Stringer, error) { return AblationSSDSteady(p) }),
		figure("gctail", func() (fmt.Stringer, error) { return AblationGCTail(p) }),
	)
}
