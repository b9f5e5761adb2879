package nvme

import (
	"math/rand"
	"testing"
)

// TestCIDTableMatchesMap runs CIDTable against a map over random
// Put/Get/Take sequences. CIDs come from a wrapping counter, as a host
// hands them out, and one long-lived CID stays filed across several laps
// of the counter so that later CIDs collide with it and force growth. Len
// must agree with the map at every step.
func TestCIDTableMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tab CIDTable[int]
		ref := map[uint16]int{}
		next := uint16(65535 - rng.Intn(512)) // wrap 65535 -> 0 early
		const pinned = uint16(65534)
		var live []uint16
		check := func(step int, what string) {
			t.Helper()
			if tab.Len() != len(ref) {
				t.Fatalf("seed %d step %d (%s): Len %d, map has %d", seed, step, what, tab.Len(), len(ref))
			}
		}
		for step := 0; step < 200_000; step++ {
			switch r := rng.Intn(10); {
			case r < 4 && len(live) < 200: // submit under the next CID
				cid := next
				next++
				_, dup := ref[cid]
				if ok := tab.Put(cid, step); ok == dup {
					t.Fatalf("seed %d step %d: Put(%d) = %v with dup %v", seed, step, cid, ok, dup)
				}
				if !dup {
					ref[cid] = step
					live = append(live, cid)
				}
			case r < 7 && len(live) > 0: // complete a random live CID
				i := rng.Intn(len(live))
				cid := live[i]
				if cid == pinned && step < 150_000 {
					continue
				}
				got, ok := tab.Take(cid)
				want, wok := ref[cid]
				if ok != wok || got != want {
					t.Fatalf("seed %d step %d: Take(%d) = %d,%v, want %d,%v", seed, step, cid, got, ok, want, wok)
				}
				delete(ref, cid)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default: // look up or take any CID, live or stale
				cid := uint16(rng.Intn(65536))
				if rng.Intn(2) == 0 && len(live) > 0 {
					cid = live[rng.Intn(len(live))]
				}
				want, wok := ref[cid]
				got, ok := tab.Get(cid)
				if ok != wok || got != want {
					t.Fatalf("seed %d step %d: Get(%d) = %d,%v, want %d,%v", seed, step, cid, got, ok, want, wok)
				}
				if !wok {
					if _, ok := tab.Take(cid); ok {
						t.Fatalf("seed %d step %d: Take of stale CID %d succeeded", seed, step, cid)
					}
				}
			}
			check(step, "step")
		}
		if len(tab.slots) <= 256 {
			t.Fatalf("seed %d: long-lived CID never forced growth (%d slots)", seed, len(tab.slots))
		}
	}
}

// TestCIDTableDuplicatePut pins that a second Put of a live CID fails and
// keeps the first value.
func TestCIDTableDuplicatePut(t *testing.T) {
	var tab CIDTable[string]
	if !tab.Put(7, "a") {
		t.Fatal("first Put failed")
	}
	if tab.Put(7, "b") {
		t.Fatal("duplicate Put succeeded")
	}
	if v, ok := tab.Get(7); !ok || v != "a" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if v, ok := tab.Take(7); !ok || v != "a" || tab.Len() != 0 {
		t.Fatalf("Take = %q,%v Len %d", v, ok, tab.Len())
	}
	if _, ok := tab.Take(7); ok {
		t.Fatal("second Take succeeded")
	}
}

// TestCIDTableSteadyStateAllocs pins that a queue recycling a bounded
// window of CIDs allocates nothing once the table has grown.
func TestCIDTableSteadyStateAllocs(t *testing.T) {
	var tab CIDTable[*int]
	v := new(int)
	cid := uint16(0)
	step := func() {
		tab.Put(cid, v)
		tab.Take(cid - 16)
		cid++
	}
	for i := 0; i < 1000; i++ {
		step()
	}
	if a := testing.AllocsPerRun(1000, step); a != 0 {
		t.Fatalf("steady-state Put/Take allocates %.1f per op", a)
	}
}
