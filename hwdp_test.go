package hwdp

import (
	"encoding/binary"
	"testing"
)

func det(scheme Scheme) Config {
	return Config{Scheme: scheme, MemoryMB: 16, Cores: 4, Deterministic: true, Seed: 7}
}

func TestColdPageLatencyOrdering(t *testing.T) {
	var lats [3]Duration
	for i, s := range []Scheme{HWDP, SWOnly, OSDP} {
		sys := New(det(s))
		lat, err := sys.ColdPageLatency()
		if err != nil {
			t.Fatal(err)
		}
		lats[i] = lat
	}
	if !(lats[0] < lats[1] && lats[1] < lats[2]) {
		t.Fatalf("ordering: hw=%v sw=%v os=%v", lats[0], lats[1], lats[2])
	}
	// Headline: HWDP ≈ 43% below OSDP on the raw fault.
	red := 1 - float64(lats[0])/float64(lats[2])
	if red < 0.35 || red > 0.50 {
		t.Fatalf("raw fault reduction = %.2f", red)
	}
}

func TestSchemeAndDeviceStrings(t *testing.T) {
	if OSDP.String() != "OSDP" || SWOnly.String() != "SW-only" || HWDP.String() != "HWDP" {
		t.Fatal("scheme strings")
	}
}

func TestDeviceLatencyScales(t *testing.T) {
	var lats []Duration
	for _, d := range []Device{OptaneDCPMM, OptaneSSD, ZSSD} {
		cfg := det(HWDP)
		cfg.Device = d
		lat, err := New(cfg).ColdPageLatency()
		if err != nil {
			t.Fatal(err)
		}
		lats = append(lats, lat)
	}
	if !(lats[0] < lats[1] && lats[1] < lats[2]) {
		t.Fatalf("device ordering: %v", lats)
	}
}

func TestRunFIO(t *testing.T) {
	sys := New(det(HWDP))
	res, err := sys.RunFIO(2, 200, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 400 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.HWMisses == 0 || res.Throughput <= 0 {
		t.Fatalf("res = %+v", res)
	}
	if res.P99Latency < res.MeanLatency {
		t.Fatal("p99 below mean")
	}
	// Hardware handling avoids context switches except for the rare
	// free-queue-empty bounces.
	if res.ContextSwaps > res.Ops/10 {
		t.Fatalf("too many context switches under HWDP: %d of %d ops",
			res.ContextSwaps, res.Ops)
	}
	if res.StallTime == 0 {
		t.Fatal("HWDP misses must stall the pipeline")
	}
}

func TestRunFIOOSDPContextSwitches(t *testing.T) {
	sys := New(det(OSDP))
	res, err := sys.RunFIO(1, 100, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if res.ContextSwaps == 0 {
		t.Fatal("OSDP faults must context switch")
	}
	if res.KernelInstr == 0 {
		t.Fatal("OSDP faults must run kernel code on the app thread")
	}
}

func TestStoreSyncAPI(t *testing.T) {
	sys := New(det(HWDP))
	st, err := sys.CreateStore("db", 512)
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys() != 512 {
		t.Fatal("keys")
	}
	payload, v, err := st.Get(100)
	if err != nil || v != 0 {
		t.Fatalf("get: v=%d err=%v", v, err)
	}
	if len(payload) == 0 {
		t.Fatal("empty payload")
	}
	if err := st.Put(100, 5); err != nil {
		t.Fatal(err)
	}
	_, v, err = st.Get(100)
	if err != nil || v != 5 {
		t.Fatalf("get after put: v=%d err=%v", v, err)
	}
	if err := st.ReadModifyWrite(100); err != nil {
		t.Fatal(err)
	}
	_, v, _ = st.Get(100)
	if v != 6 {
		t.Fatalf("rmw version = %d", v)
	}
}

func TestRunYCSB(t *testing.T) {
	sys := New(det(HWDP))
	res, err := sys.RunYCSB('C', 2, 150, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 300 || res.Errors != 0 {
		t.Fatalf("res = %+v", res)
	}
	if res.UserIPC <= 0 {
		t.Fatal("no IPC measured")
	}
}

func TestStatsSnapshot(t *testing.T) {
	sys := New(det(HWDP))
	if _, err := sys.RunFIO(1, 150, 2048); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.HWMisses == 0 || st.DeviceReads == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MajorFaults != 0 && st.HWBounceFaults == 0 {
		t.Fatalf("OSDP faults under HWDP without bounces: %+v", st)
	}
}

func TestRunForAdvancesTime(t *testing.T) {
	sys := New(det(HWDP))
	t0 := sys.Now()
	sys.RunFor(5 * 1_000_000_000) // 5 ms in picoseconds
	if sys.Now() <= t0 {
		t.Fatal("time did not advance")
	}
}

func TestAnonRegionAPI(t *testing.T) {
	sys := New(det(HWDP))
	region, err := sys.MmapAnon(64)
	if err != nil {
		t.Fatal(err)
	}
	if region.Pages() != 64 {
		t.Fatal("pages")
	}
	data := []byte("anonymous bytes")
	if err := region.Write(4096*3+17, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := region.Read(4096*3+17, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(data) {
		t.Fatalf("round trip: %q", buf)
	}
	// Untouched pages read as zero.
	if err := region.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("untouched anon page not zero")
		}
	}
	if sys.Stats().AnonZeroFills == 0 {
		t.Fatal("no hardware zero-fills recorded")
	}
	// Bounds checks.
	if err := region.Write(64*4096-2, data); err == nil {
		t.Fatal("out-of-bounds write accepted")
	}
	if err := region.Read(-1, buf); err == nil {
		t.Fatal("negative read accepted")
	}
}

// TestAnonSwapStorm writes a counter into every page of an anonymous heap
// twice the size of memory, so most pages swap out, then reads every page
// back. Under a one-shot unrecoverable read fault, exactly one Read fails
// (the thread's SIGBUS kill) and every other Read still returns the value
// written. Swap counts differ by scheme and are not compared: HWDP's
// SMU-zero-filled pages are rarely evicted.
func TestAnonSwapStorm(t *testing.T) {
	const pages = 3000
	uecc := []FaultRule{{Kind: FaultUECC, Prob: 1, ReadsOnly: true, MaxInjections: 1}}
	for _, tc := range []struct {
		scheme Scheme
		faults []FaultRule
	}{
		{scheme: OSDP}, {scheme: SWOnly}, {scheme: HWDP},
		{scheme: OSDP, faults: uecc}, {scheme: SWOnly, faults: uecc}, {scheme: HWDP, faults: uecc},
	} {
		name := tc.scheme.String()
		if tc.faults != nil {
			name += "/uecc"
		}
		t.Run(name, func(t *testing.T) {
			sys := New(Config{Scheme: tc.scheme, MemoryMB: 6, Seed: 11, Faults: tc.faults})
			heap, err := sys.MmapAnon(pages)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 8)
			for i := 0; i < pages; i++ {
				binary.LittleEndian.PutUint64(buf, uint64(i)*7+1)
				if err := heap.Write(i*4096, buf); err != nil {
					t.Fatalf("write page %d: %v", i, err)
				}
			}
			failed := 0
			for i := 0; i < pages; i++ {
				for j := range buf {
					buf[j] = 0xEE // a Read that copies nothing cannot pass the check below
				}
				if err := heap.Read(i*4096, buf); err != nil {
					failed++
					continue
				}
				if got := binary.LittleEndian.Uint64(buf); got != uint64(i)*7+1 {
					t.Fatalf("page %d read %#x, want %d", i, got, uint64(i)*7+1)
				}
			}
			wantFailed := 0
			if tc.faults != nil {
				wantFailed = 1
			}
			st := sys.Stats()
			if failed != wantFailed {
				t.Errorf("%d reads failed, want %d", failed, wantFailed)
			}
			if st.DeviceWrites == 0 || st.DeviceReads == 0 {
				t.Errorf("device writes %d, reads %d: the heap never swapped", st.DeviceWrites, st.DeviceReads)
			}
			if v := sys.CheckInvariants(); len(v) != 0 {
				t.Errorf("invariants: %v", v)
			}
		})
	}
}

func TestFacadePrefetchConfig(t *testing.T) {
	cfg := det(HWDP)
	cfg.PrefetchDegree = 2
	sys := New(cfg)
	if _, err := sys.RunFIO(1, 100, 2048); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().Prefetches == 0 {
		t.Fatal("prefetcher never ran")
	}
}

func TestFacadeStallTimeout(t *testing.T) {
	cfg := det(HWDP)
	cfg.StallTimeoutUS = 1 // absurdly tight: every Z-SSD miss times out
	sys := New(cfg)
	if _, err := sys.ColdPageLatency(); err != nil {
		t.Fatal(err)
	}
	if sys.Stats().StallTimeouts == 0 {
		t.Fatal("stall timeout never fired")
	}
}

func TestFacadeLogStructuredFS(t *testing.T) {
	cfg := det(HWDP)
	cfg.LogStructuredFS = true
	sys := New(cfg)
	st, err := sys.CreateStore("lfs-db", 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(5, 1); err != nil {
		t.Fatal(err)
	}
	_, v, err := st.Get(5)
	if err != nil || v != 1 {
		t.Fatalf("LFS store get: v=%d err=%v", v, err)
	}
}

func TestCheckInvariantsAfterWorkload(t *testing.T) {
	sys := New(det(HWDP))
	if _, err := sys.RunFIO(2, 300, 4096); err != nil {
		t.Fatal(err)
	}
	if vs := sys.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}
