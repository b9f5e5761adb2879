package kvs

import (
	"errors"
	"testing"
	"testing/quick"

	"hwdp/internal/core"
	"hwdp/internal/fs"
	"hwdp/internal/kernel"
	"hwdp/internal/mem"
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
		done := false
		st.Get(th, 123, func(v uint64, _ mem.Content, err error) {
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
	done := false
	st.Put(th, 7, 99, func(err error) {
		if err != nil {
			t.Error(err)
		}
		st.Get(th, 7, func(v uint64, _ mem.Content, err error) {
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
	done := false
	st.ReadModifyWrite(th, 5, func(err error) {
		if err != nil {
			t.Error(err)
		}
		st.Get(th, 5, func(v uint64, _ mem.Content, err error) {
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
	done := false
	st.Scan(th, 10, 8, func(n int, err error) {
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
	st.Scan(th, 60, 100, func(n int, err error) {
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
	gotGet, gotPut := false, false
	st.Get(th, 8, func(_ uint64, _ mem.Content, err error) {
		if !errors.Is(err, ErrBadKey) {
			t.Errorf("get err = %v", err)
		}
		gotGet = true
	})
	st.Put(th, 99, 1, func(err error) {
		if !errors.Is(err, ErrBadKey) {
			t.Errorf("put err = %v", err)
		}
		gotPut = true
	})
	gotVersion := false
	st.Put(th, 1, maxVersion+1, func(err error) {
		if !errors.Is(err, ErrBadVersion) {
			t.Errorf("put of an unpackable version: err = %v", err)
		}
		gotVersion = true
	})
	if !gotGet || !gotPut || !gotVersion {
		t.Fatal("bad-key callbacks not synchronous")
	}
	if _, err := Create(sys.K, sys.FS, sys.Proc, "huge", maxKeys, 0, 0, sys.FastFlags()); err == nil {
		t.Fatal("Create accepted 2^32 keys")
	}
}

func TestDataSurvivesEvictionPressure(t *testing.T) {
	// Store bigger than memory: every record re-read after pressure must
	// still validate, including updated ones (writeback + refault).
	sys := testSystem(t, kernel.HWDP)
	st := mkStore(t, sys, 8192) // 32 MiB store, 16 MiB memory
	th := sys.WorkloadThread(0)
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
			st.Put(th, key, v, func(err error) {
				if err != nil {
					t.Error(err)
				}
				step()
			})
		} else {
			st.Get(th, key, func(v uint64, _ mem.Content, err error) {
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

// TestDescriptorMatchesBytes: for any (key, version), validating the
// record's descriptor returns exactly what validateRecord returns on the
// descriptor's bytes, and every descriptor that is not this table's record
// for the key is rejected through the byte path.
func TestDescriptorMatchesBytes(t *testing.T) {
	s := &Store{gen: mem.NewGenerator(generateRecord)}
	foreign := mem.NewGenerator(fs.SeededInit(1))
	buf := make([]byte, RecordSize)
	// validate runs s.validate and checks it against validateRecord on
	// the materialized bytes.
	validate := func(c mem.Content, key uint64) (uint64, error) {
		c.Materialize(buf)
		wantV, wantErr := validateRecord(buf, key)
		v, err := s.validate(c, key)
		if v != wantV || (err == nil) != (wantErr == nil) || errors.Is(err, ErrCorrupt) != errors.Is(wantErr, ErrCorrupt) {
			t.Errorf("key %d: validate = %d, %v; validateRecord = %d, %v", key, v, err, wantV, wantErr)
		}
		return v, err
	}
	f := func(key uint32, version uint32, flip uint16) bool {
		k, ver := uint64(key), uint64(version)&maxVersion
		word := pack(k, ver)
		if v, err := validate(mem.Generated(s.gen, word), k); err != nil || v != ver {
			t.Logf("record (%d, %d): v=%d err=%v", k, ver, v, err)
			return false
		}
		enc := new([RecordSize]byte)
		encodeRecord(enc[:], k, ver)
		if v, err := validate(mem.Snapshot(enc), k); err != nil || v != ver {
			t.Logf("snapshot of (%d, %d): v=%d err=%v", k, ver, v, err)
			return false
		}
		flipped := *enc
		flipped[int(flip)%RecordSize] ^= 1
		for name, tc := range map[string]struct {
			c   mem.Content
			key uint64
		}{
			"zero descriptor":   {mem.Content{}, k},
			"foreign generator": {mem.Generated(foreign, word), k},
			"wrong key":         {mem.Generated(s.gen, word), k ^ 1},
			"flipped byte":      {mem.Snapshot(&flipped), k},
		} {
			if _, err := validate(tc.c, tc.key); !errors.Is(err, ErrCorrupt) {
				t.Logf("%s for (%d, %d): err=%v", name, k, ver, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDescriptorValidateAllocationFree pins the descriptor path of record
// validation at zero allocations.
func TestDescriptorValidateAllocationFree(t *testing.T) {
	s := &Store{gen: mem.NewGenerator(generateRecord)}
	c := mem.Generated(s.gen, pack(42, 7))
	got := testing.AllocsPerRun(100, func() {
		if v, err := s.validate(c, 42); err != nil || v != 7 {
			t.Fatalf("validate = %d, %v", v, err)
		}
	})
	if got != 0 {
		t.Fatalf("descriptor validation allocates %.1f objects/op, want 0", got)
	}
}

// TestPutWritesNoBytes: a Put stores the record's descriptor, writeback
// hands that descriptor to the file system, and a Get validates it without
// materializing the frame.
func TestPutWritesNoBytes(t *testing.T) {
	sys := testSystem(t, kernel.HWDP)
	st := mkStore(t, sys, 64)
	th := sys.WorkloadThread(0)
	const key, version = 7, 3
	done := false
	st.Put(th, key, version, func(err error) {
		if err != nil {
			t.Error(err)
		}
		sys.K.Msync(th, st.Base(), func() { done = true })
	})
	runUntil(sys, &done)
	if !done {
		t.Fatal("put or msync hung")
	}
	blk, err := sys.FS.Block(st.File(), key)
	if err != nil {
		t.Fatal(err)
	}
	if word, ok := sys.FS.BlockContent(blk.LBA).GeneratedBy(st.File().Generator()); !ok || word != pack(key, version) {
		t.Fatalf("block content: word %#x ok=%v, want the table's descriptor %#x", word, ok, pack(key, version))
	}

	done = false
	st.Get(th, key, func(v uint64, rec mem.Content, err error) {
		if err != nil || v != version {
			t.Errorf("get: v=%d err=%v", v, err)
		}
		if _, ok := rec.GeneratedBy(st.File().Generator()); !ok {
			t.Error("get returned a snapshot, not the record's descriptor")
		}
		done = true
	})
	runUntil(sys, &done)
	pte, ok := sys.Proc.AS.Table.Lookup(st.Base() + key*RecordSize)
	if !ok || !pte.Present() {
		t.Fatal("record page not resident after get")
	}
	if _, ok := sys.Mem.Descriptor(pte.PFN()); !ok {
		t.Fatal("get materialized the record's frame")
	}
}
