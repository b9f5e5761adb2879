package fleet

import (
	"fmt"

	"hwdp/internal/sim"
	"hwdp/internal/sweep"
)

// Ladder builds the standard fleet sweep: for each intensity skew, one
// experiment with QoS off (today's FIFO admission) and one with QoS on,
// so the comparison isolates exactly what weighted-fair admission buys the
// victim tenant. Tenant/thread/socket shape comes from DefaultConfig.
func Ladder(seed uint64) []Config {
	var cfgs []Config
	for _, skew := range []float64{0.5, 1.3, 2.0, 3.0} {
		for _, qos := range []bool{false, true} {
			c := DefaultConfig()
			c.Skew = skew
			c.QoS = qos
			c.Seed = seed
			tag := "fifo"
			if qos {
				tag = "qos"
			}
			c.Name = fmt.Sprintf("fleet/skew%.2f/%s", skew, tag)
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// QuickLadder is the CI-sized sweep: one skew, both admission modes, a
// shorter run.
func QuickLadder(seed uint64) []Config {
	var cfgs []Config
	for _, qos := range []bool{false, true} {
		c := DefaultConfig()
		c.QoS = qos
		c.Seed = seed
		c.Duration = 12 * sim.Millisecond
		c.Warmup = 3 * sim.Millisecond
		tag := "fifo"
		if qos {
			tag = "qos"
		}
		c.Name = fmt.Sprintf("fleet/quick/%s", tag)
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// Units wraps the experiments as sweep units. Each unit's Run renders the
// per-tenant report text and returns the experiment's Result as its
// structured result; the orchestrator emits outputs in config order, so
// `-j 1` and `-j 8` produce identical bytes.
func Units(cfgs []Config) []sweep.Unit {
	units := make([]sweep.Unit, len(cfgs))
	for i, c := range cfgs {
		units[i] = sweep.Unit{
			Name: c.Name,
			Kind: "fleet",
			Run: func() (string, any, error) {
				r, err := Run(c)
				if err != nil {
					return "", nil, err
				}
				return RenderResult(r), r, nil
			},
		}
	}
	return units
}
