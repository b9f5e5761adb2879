package main

import "testing"

// tracesOut is `go tool pprof -traces -lines` output for a repository at
// /src/hwdp, trimmed to one sample of each kind the fold must handle.
const tracesOut = `File: hwdp-bench
Type: cpu
Duration: 2.21s, Total samples = 2.21s (100.15%)
-----------+-------------------------------------------------------
     120ms   hwdp/internal/workload.SetupFIO.SeededInit.func1 /src/hwdp/internal/fs/fs.go:49
             hwdp/internal/fs.(*FS).ReadBlock /src/hwdp/internal/fs/fs.go:225
             hwdp/internal/core.NewSystem.func1.1 /src/hwdp/internal/core/core.go:302
             hwdp/internal/sim.(*Engine).Step /src/hwdp/internal/sim/engine.go:251
             main.main /src/hwdp/bench/main.go:27
-----------+-------------------------------------------------------
      30ms   runtime.memclrNoHeapPointers /usr/local/go/src/runtime/memclr_amd64.s:93
             runtime.mallocgc /usr/local/go/src/runtime/malloc.go:1055
             internal/bytealg.IndexByte /usr/local/go/src/internal/bytealg/indexbyte_amd64.s:10 (inline)
             hwdp/internal/mem.(*Memory).Data /src/hwdp/internal/mem/mem.go:129
             hwdp/internal/mem.(*Memory).Fill /src/hwdp/internal/mem/mem.go:138
-----------+-------------------------------------------------------
      10ms   runtime.(*sweepLocker).tryAcquire /usr/local/go/src/runtime/mgcsweep.go:343
             runtime.sweepone /usr/local/go/src/runtime/mgcsweep.go:385
             runtime.bgsweep /usr/local/go/src/runtime/mgcsweep.go:297
-----------+-------------------------------------------------------
      1.20s   hwdp/bench.(*tenantOp).Op.func1 /src/hwdp/bench/workloads.go:180
             hwdp/internal/cpu.(*CPU).runCont /src/hwdp/internal/cpu/cpu.go:310
-----------+-------------------------------------------------------
`

func TestFoldTraces(t *testing.T) {
	got, err := foldTraces(tracesOut, "/src/hwdp")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"fs":    0.12, // an inlined closure lands in the file that defines it
		"mem":   0.03, // standard-library leaves are charged to the calling frame
		"gc":    0.01, // a stack with no repository frame
		"bench": 1.2,
	}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
	for layer, s := range want {
		if d := got[layer] - s; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %gs, want %gs", layer, got[layer], s)
		}
	}
}

func TestFoldTracesRejectsBadWeight(t *testing.T) {
	bad := "-----------+----\n  lots   main.main /src/hwdp/bench/main.go:1\n"
	if _, err := foldTraces(bad, "/src/hwdp"); err == nil {
		t.Error("want an error for an unparsable sample weight")
	}
}
