package kvs

import (
	"errors"
	"testing"
	"testing/quick"

	"hwdp/internal/core"
	"hwdp/internal/kernel"
	"hwdp/internal/sim"
)

func testSystem(t *testing.T, scheme kernel.Scheme) *core.System {
	t.Helper()
	cfg := core.DefaultConfig(scheme)
	cfg.Cores = 4
	cfg.MemoryBytes = 16 << 20
	cfg.FSBlocks = 1 << 16
	cfg.DeviceJitter = false
	cfg.Kernel.KptedPeriod = 2 * sim.Millisecond
	return cfg.Build()
}

func mkStore(t *testing.T, sys *core.System, keys uint64) *Store {
	t.Helper()
	st, err := Create(sys.K, sys.FS, sys.Proc, "db", keys, 0, 0, sys.FastFlags())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func runUntil(sys *core.System, done *bool) {
	sys.RunWhile(func() bool { return !*done })
}

func TestRecordEncodeValidate(t *testing.T) {
	buf := make([]byte, RecordSize)
	encodeRecord(buf, 42, 7)
	v, err := validateRecord(buf, 42)
	if err != nil || v != 7 {
		t.Fatalf("validate: %v %d", err, v)
	}
	if _, err := validateRecord(buf, 43); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong key accepted: %v", err)
	}
	buf[100] ^= 1
	if _, err := validateRecord(buf, 42); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip accepted: %v", err)
	}
}

// TestRecordSingleByteFlipIsCorrupt: flipping any one byte of an encoded
// record, header or payload, fails validation.
func TestRecordSingleByteFlipIsCorrupt(t *testing.T) {
	buf := make([]byte, RecordSize)
	encodeRecord(buf, 42, 7)
	for i := range buf {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			buf[i] ^= mask
			if _, err := validateRecord(buf, 42); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("byte %d ^ %#x: err = %v, want ErrCorrupt", i, mask, err)
			}
			buf[i] ^= mask
		}
	}
	if _, err := validateRecord(buf, 42); err != nil {
		t.Fatalf("restored record: %v", err)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	buf := make([]byte, RecordSize)
	f := func(key, version uint64) bool {
		encodeRecord(buf, key, version)
		v, err := validateRecord(buf, key)
		return err == nil && v == version
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGetColdRecordAllSchemes(t *testing.T) {
	for _, scheme := range []kernel.Scheme{kernel.OSDP, kernel.SWDP, kernel.HWDP} {
		sys := testSystem(t, scheme)
		st := mkStore(t, sys, 256)
		th := sys.WorkloadThread(0)
		buf := make([]byte, RecordSize)
		done := false
		st.Get(th, 123, buf, func(v uint64, err error) {
			if err != nil {
				t.Errorf("%v: get: %v", scheme, err)
			}
			if v != 0 {
				t.Errorf("%v: version = %d", scheme, v)
			}
			done = true
		})
		runUntil(sys, &done)
		if !done {
			t.Fatalf("%v: get hung", scheme)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	sys := testSystem(t, kernel.HWDP)
	st := mkStore(t, sys, 128)
	th := sys.WorkloadThread(0)
	buf := make([]byte, RecordSize)
	done := false
	st.Put(th, 7, 99, buf, func(err error) {
		if err != nil {
			t.Error(err)
		}
		st.Get(th, 7, buf, func(v uint64, err error) {
			if err != nil || v != 99 {
				t.Errorf("get after put: v=%d err=%v", v, err)
			}
			done = true
		})
	})
	runUntil(sys, &done)
	if !done {
		t.Fatal("hung")
	}
}

func TestReadModifyWrite(t *testing.T) {
	sys := testSystem(t, kernel.HWDP)
	st := mkStore(t, sys, 64)
	th := sys.WorkloadThread(0)
	buf := make([]byte, RecordSize)
	done := false
	st.ReadModifyWrite(th, 5, buf, func(err error) {
		if err != nil {
			t.Error(err)
		}
		st.Get(th, 5, buf, func(v uint64, err error) {
			if err != nil || v != 1 {
				t.Errorf("rmw result: v=%d err=%v", v, err)
			}
			done = true
		})
	})
	runUntil(sys, &done)
	if !done {
		t.Fatal("hung")
	}
}

func TestScan(t *testing.T) {
	sys := testSystem(t, kernel.HWDP)
	st := mkStore(t, sys, 64)
	th := sys.WorkloadThread(0)
	buf := make([]byte, RecordSize)
	done := false
	st.Scan(th, 10, 8, buf, func(n int, err error) {
		if err != nil || n != 8 {
			t.Errorf("scan: n=%d err=%v", n, err)
		}
		done = true
	})
	runUntil(sys, &done)
	if !done {
		t.Fatal("hung")
	}
	// Scan clipped at the end of the keyspace.
	done = false
	st.Scan(th, 60, 100, buf, func(n int, err error) {
		if err != nil || n != 4 {
			t.Errorf("clipped scan: n=%d err=%v", n, err)
		}
		done = true
	})
	runUntil(sys, &done)
}

func TestBadKey(t *testing.T) {
	sys := testSystem(t, kernel.HWDP)
	st := mkStore(t, sys, 8)
	th := sys.WorkloadThread(0)
	buf := make([]byte, RecordSize)
	gotGet, gotPut := false, false
	st.Get(th, 8, buf, func(_ uint64, err error) {
		if !errors.Is(err, ErrBadKey) {
			t.Errorf("get err = %v", err)
		}
		gotGet = true
	})
	st.Put(th, 99, 1, buf, func(err error) {
		if !errors.Is(err, ErrBadKey) {
			t.Errorf("put err = %v", err)
		}
		gotPut = true
	})
	if !gotGet || !gotPut {
		t.Fatal("bad-key callbacks not synchronous")
	}
}

func TestDataSurvivesEvictionPressure(t *testing.T) {
	// Store bigger than memory: every record re-read after pressure must
	// still validate, including updated ones (writeback + refault).
	sys := testSystem(t, kernel.HWDP)
	st := mkStore(t, sys, 8192) // 32 MiB store, 16 MiB memory
	th := sys.WorkloadThread(0)
	buf := make([]byte, RecordSize)
	rng := sim.NewRand(5)
	writes := map[uint64]uint64{}
	ops := 0
	done := false
	var step func()
	step = func() {
		if ops >= 5000 {
			done = true
			return
		}
		ops++
		key := rng.Uint64() % 8192
		if rng.Intn(3) == 0 {
			v := writes[key] + 1
			writes[key] = v
			st.Put(th, key, v, buf, func(err error) {
				if err != nil {
					t.Error(err)
				}
				step()
			})
		} else {
			st.Get(th, key, buf, func(v uint64, err error) {
				if err != nil {
					t.Errorf("op %d key %d: %v", ops, key, err)
				}
				if want := writes[key]; v != want {
					t.Errorf("key %d version %d, want %d", key, v, want)
				}
				step()
			})
		}
	}
	step()
	runUntil(sys, &done)
	if !done {
		t.Fatal("hung")
	}
	if sys.K.Stats().Evictions == 0 {
		t.Fatal("test intended to create eviction pressure but did not")
	}
}
