package figures

import (
	"strings"
	"testing"
)

// TestUnitsCoverAllOrder pins the unit decomposition to the -all
// sequence: tables first, then every figure in the usage order. The
// sweep scheduler emits results in this order, so this list is also the
// stdout contract of `hwdpbench -all`.
func TestUnitsCoverAllOrder(t *testing.T) {
	want := []string{
		"table/1", "table/2", "table/area",
		"fig/1", "fig/2", "fig/3", "fig/4",
		"fig/11", "fig/12",
		"fig/13/FIO", "fig/13/DBBench", "fig/13/YCSB-A", "fig/13/YCSB-B",
		"fig/13/YCSB-C", "fig/13/YCSB-D", "fig/13/YCSB-E", "fig/13/YCSB-F",
		"fig/14", "fig/15", "fig/16", "fig/17",
		"fig/kpoold", "fig/pmshr", "fig/devices", "fig/prefetch",
		"fig/ssd", "fig/gctail",
	}
	units := Units(Quick(), nil)
	if len(units) != len(want) {
		t.Fatalf("units = %d, want %d", len(units), len(want))
	}
	for i, u := range units {
		if u.Name != want[i] {
			t.Fatalf("unit %d = %s, want %s", i, u.Name, want[i])
		}
		if u.Run == nil || u.Kind == "" {
			t.Fatalf("unit %s incomplete: %+v", u.Name, u)
		}
	}
}

// TestFig13ShardAssembly verifies the per-workload shards concatenate to
// exactly the monolithic Fig13 rendering plus the separator newline —
// the property that lets the scheduler parallelize inside the figure
// without changing a byte of `-all` output. Small op counts: the cells'
// values only need to match between the two paths, not mean anything.
func TestFig13ShardAssembly(t *testing.T) {
	p := Quick()
	p.OpsPerThread, p.WarmupOps = 400, 150
	threads := []int{1}
	direct, err := Fig13(p, threads)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, u := range Units(p, threads) {
		if !strings.HasPrefix(u.Name, "fig/13/") {
			continue
		}
		out, _, err := u.Run()
		if err != nil {
			t.Fatalf("%s: %v", u.Name, err)
		}
		got.WriteString(out)
	}
	if want := direct.String() + "\n"; got.String() != want {
		t.Fatalf("shard concatenation diverges from Fig13:\n got: %q\nwant: %q",
			got.String(), want)
	}
}

// TestUnitRunMatchesDirectCall spot-checks that a unit's output is the
// direct function's rendering plus the separator newline, with no
// structured result.
func TestUnitRunMatchesDirectCall(t *testing.T) {
	for _, u := range Units(Quick(), nil) {
		if u.Name != "table/1" {
			continue
		}
		out, data, err := u.Run()
		if err != nil {
			t.Fatal(err)
		}
		if data != nil {
			t.Fatalf("table unit returned data %#v, want nil", data)
		}
		if out != TableI()+"\n" {
			t.Fatalf("unit output diverges from TableI():\n%q", out)
		}
		if !strings.HasSuffix(out, "\n\n") {
			t.Fatalf("unit output missing the blank-line separator: %q", out)
		}
		return
	}
	t.Fatal("table/1 unit not found")
}
