package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"hwdp/internal/fault"
	"hwdp/internal/sim"
	"hwdp/internal/smu"
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

// mirroredFields are the TenantStats fields that mirror a same-named
// global smu.Stats counter one-to-one. Submitted and Throttled are
// excluded: they count QoS/NVMe-layer events with no global twin.
func mirroredFields() []string {
	var names []string
	st := reflect.TypeOf(smu.Stats{})
	tt := reflect.TypeOf(smu.TenantStats{})
	for i := 0; i < tt.NumField(); i++ {
		name := tt.Field(i).Name
		if _, ok := st.FieldByName(name); ok {
			names = append(names, name)
		}
	}
	return names
}

// TestTenantConservation is the per-tenant accounting property: for every
// mirrored counter, the sum over tenant rows equals the global SMU
// counter — under QoS on and off, and under a device fault storm (which exercises the retry/timeout/UECC mirrors).
func TestTenantConservation(t *testing.T) {
	fields := mirroredFields()
	if len(fields) < 10 {
		t.Fatalf("only %d mirrored fields found via reflection; TenantStats drifted from Stats?", len(fields))
	}
	storm := []fault.Rule{
		{Kind: fault.Transient, Prob: 0.05},
		{Kind: fault.UECC, Prob: 0.01, ReadsOnly: true, MaxInjections: 50},
		{Kind: fault.Spike, Prob: 0.02, SpikeFactor: 8},
	}
	cases := []struct {
		name   string
		qos    bool
		faults []fault.Rule
	}{
		{"fifo", false, nil},
		{"qos", true, nil},
		{"fifo-faults", false, storm},
		{"qos-faults", true, storm},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := DefaultConfig()
			c.QoS = tc.qos
			c.Duration = 10 * sim.Millisecond
			c.Warmup = 2 * sim.Millisecond
			e, err := newExperiment(c, tc.faults)
			if err != nil {
				t.Fatal(err)
			}
			res := e.run()
			if res.Ops == 0 {
				t.Fatal("empty run")
			}
			for sid, s := range e.sys.SMUs {
				global := reflect.ValueOf(s.Stats())
				for _, f := range fields {
					var sum uint64
					for tn := 0; tn < s.Tenants(); tn++ {
						row := reflect.ValueOf(s.TenantCounters(tn))
						sum += row.FieldByName(f).Uint()
					}
					if want := global.FieldByName(f).Uint(); sum != want {
						t.Errorf("smu %d: sum over tenants of %s = %d, global = %d", sid, f, sum, want)
					}
				}
			}
		})
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
