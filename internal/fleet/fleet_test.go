package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"hwdp/internal/sweep"
)

func TestThreadCountsShape(t *testing.T) {
	for _, tc := range []struct {
		tenants, total int
		skew           float64
	}{
		{2, 2, 0}, {3, 16, 2.0}, {4, 8, 0.99}, {8, 9, 3.0}, {5, 64, 1.3},
	} {
		counts := ThreadCounts(tc.tenants, tc.total, tc.skew)
		sum := 0
		for t2, n := range counts {
			if n < 1 {
				t.Errorf("ThreadCounts(%d,%d,%.2f): tenant %d got %d threads, want >= 1",
					tc.tenants, tc.total, tc.skew, t2, n)
			}
			if t2 > 0 && counts[t2] > counts[t2-1] {
				t.Errorf("ThreadCounts(%d,%d,%.2f): counts not monotone: %v",
					tc.tenants, tc.total, tc.skew, counts)
			}
			sum += n
		}
		if sum != tc.total {
			t.Errorf("ThreadCounts(%d,%d,%.2f) = %v sums to %d, want %d",
				tc.tenants, tc.total, tc.skew, counts, sum, tc.total)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Tenants = 1 },
		func(c *Config) { c.Threads = 2 },
		func(c *Config) { c.Sockets = 9 },
		func(c *Config) { c.Sockets = 0 },
		func(c *Config) { c.Duration = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: Validate accepted an invalid config", i)
		}
	}
}

// TestIsolationImprovement is the tentpole acceptance check: under a noisy
// neighbor at the top of the skew ladder, arming QoS improves the victim
// tenant's p99.9 access latency by at least 2x. The run is fixed-seed, so
// the measured factor is deterministic.
func TestIsolationImprovement(t *testing.T) {
	var p999 [2]float64
	for i, qos := range []bool{false, true} {
		c := DefaultConfig()
		c.Skew = 3.0
		c.QoS = qos
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if r.Ops == 0 || r.VictimP999US == 0 {
			t.Fatalf("qos=%v: empty run: ops=%d victim p99.9=%v", qos, r.Ops, r.VictimP999US)
		}
		victim := r.Rows[len(r.Rows)-1]
		if victim.Ops < 500 {
			t.Fatalf("qos=%v: victim recorded only %d ops; tail percentiles meaningless", qos, victim.Ops)
		}
		p999[i] = r.VictimP999US
	}
	factor := p999[0] / p999[1]
	t.Logf("victim p99.9: qos-off %.2fus, qos-on %.2fus, improvement %.2fx", p999[0], p999[1], factor)
	if factor < 2 {
		t.Fatalf("isolation improved victim p99.9 only %.2fx (off %.2fus on %.2fus), want >= 2x",
			factor, p999[0], p999[1])
	}
}

// TestSweepWorkerInvariance pins the fleet figure across sweep worker
// counts: running the quick ladder under -j 1 and -j 8 must emit identical
// bytes (unit-list-order emission).
func TestSweepWorkerInvariance(t *testing.T) {
	emit := func(workers int) string {
		units := Units(QuickLadder(1))
		var buf bytes.Buffer
		rs := sweep.Run(units, sweep.Options{Workers: workers, Out: &buf})
		for _, r := range rs {
			if r.Status != sweep.StatusOK {
				t.Fatalf("unit %s: %s: %s", r.Name, r.Status, r.Err)
			}
		}
		return buf.String()
	}
	a, b := emit(1), emit(8)
	if a != b {
		t.Errorf("fleet sweep output differs between -j 1 and -j 8:\n%s\nvs\n%s", a, b)
	}
}

// TestLadderRenders smoke-checks the full ladder report plumbing: every
// unit runs and returns its Result as sweep data, the data covers every
// tenant row, and the comparison figure has one line per skew.
func TestLadderRenders(t *testing.T) {
	cfgs := QuickLadder(1)
	var buf bytes.Buffer
	rs := sweep.Run(Units(cfgs), sweep.Options{Workers: 2, Out: &buf})
	var results []Result
	rows := 0
	for _, r := range rs {
		if r.Status != sweep.StatusOK {
			t.Fatalf("unit %s: %s: %s", r.Name, r.Status, r.Err)
		}
		res, ok := r.Data.(Result)
		if !ok {
			t.Fatalf("unit %s data = %T, want fleet.Result", r.Name, r.Data)
		}
		results = append(results, res)
		rows += len(res.Rows)
	}
	if len(results) != len(cfgs) || rows != len(cfgs)*cfgs[0].Tenants {
		t.Fatalf("data shape: %d experiments, %d tenant rows", len(results), rows)
	}
	cmp := RenderComparison(results)
	if want := fmt.Sprintf("%.2f", cfgs[0].Skew); !bytes.Contains([]byte(cmp), []byte(want)) {
		t.Errorf("comparison missing skew row %s:\n%s", want, cmp)
	}
}
