package modeled

import (
	"fmt"
	"reflect"
	"testing"

	"hwdp/internal/nvme"
	"hwdp/internal/sim"
	"hwdp/internal/ssd"
)

// smallConfig is a tiny geometry that forces frequent GC: 4 planes,
// 16-page blocks, deep churn. Latencies stay at profile-derived defaults.
func smallConfig(policy Policy, churn float64) Config {
	return Config{
		Channels:        2,
		WaysPerChannel:  1,
		PlanesPerWay:    2,
		PagesPerBlock:   16,
		OPFrac:          0.15,
		MapEntries:      128,
		BufEntries:      8,
		GCPolicy:        policy,
		FillFrac:        0.9,
		ChurnOverwrites: churn,
	}
}

const smallLBAs = 2048

func newSmall(t *testing.T, policy Policy, churn float64, seed uint64) *Model {
	t.Helper()
	m := New(smallConfig(policy, churn), ssd.ZSSD, smallLBAs, seed)
	if vs := m.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("invariants violated straight out of preconditioning: %v", vs)
	}
	return m
}

// writeCmd admits an n-block write at the given LBA and returns the ack
// time (the next command's earliest sensible arrival).
func writeCmd(m *Model, now sim.Time, lba int64, n int) sim.Time {
	adm := m.Admit(now, nvme.Command{Opcode: nvme.OpWrite, SLBA: uint64(lba), NLB: uint16(n - 1)}, 1)
	return adm.Done
}

// readCmd admits an n-block read.
func readCmd(m *Model, now sim.Time, lba int64, n int) sim.Time {
	adm := m.Admit(now, nvme.Command{Opcode: nvme.OpRead, SLBA: uint64(lba), NLB: uint16(n - 1)}, 1)
	return adm.Done
}

// TestGCConservationProperty is the archetype headline: arbitrary
// fixed-seed write storms against a heavily preconditioned tiny drive,
// audited by CheckInvariants at every checkpoint. The invariants assert
// exactly the issue's conservation properties — every live LBA maps to
// exactly one valid flash page holding its last-written version (GC
// relocated no stale data and lost no live data), and free-block /
// valid-page counts reconcile. A per-LBA version shadow kept by the test
// independently re-derives "last-written".
func TestGCConservationProperty(t *testing.T) {
	seeds := []uint64{1, 2, 3, 5, 8, 13}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		for _, policy := range []Policy{Greedy, CostBenefit} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, policy), func(t *testing.T) {
				runStorm(t, policy, seed)
			})
		}
	}
}

func runStorm(t *testing.T, policy Policy, seed uint64) {
	m := newSmall(t, policy, 2, seed)
	rng := sim.NewRand(seed ^ 0xa5a5)
	shadow := make([]uint32, smallLBAs) // independent last-write versions
	// Adopt the preconditioning state as the shadow baseline.
	copy(shadow, m.ver)
	var seq uint32
	for lba, v := range shadow {
		if v > seq {
			seq = v
			_ = lba
		}
	}
	now := sim.Time(0)
	for op := 0; op < 4000; op++ {
		lba := rng.Int63n(smallLBAs)
		n := 1 + int(rng.Intn(4))
		if lba+int64(n) > smallLBAs {
			n = int(smallLBAs - lba)
		}
		if rng.Float64() < 0.7 {
			now = writeCmd(m, now, lba, n)
			for i := 0; i < n; i++ {
				seq++
				shadow[lba+int64(i)] = seq
			}
		} else {
			now = readCmd(m, now, lba, n)
		}
		now += sim.Microsecond
		if op%500 == 499 {
			if vs := m.CheckInvariants(); len(vs) != 0 {
				t.Fatalf("op %d: %d invariant violations, first: %v", op, len(vs), vs[0])
			}
		}
	}
	if vs := m.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("final state: %d invariant violations, first: %v", len(vs), vs[0])
	}
	for lba := int64(0); lba < smallLBAs; lba++ {
		if m.ver[lba] != shadow[lba] {
			t.Fatalf("lba %d: model version %d, shadow says last write was %d", lba, m.ver[lba], shadow[lba])
		}
	}
	st := m.Stats()
	if st.GCRuns == 0 || st.Erases == 0 {
		t.Fatalf("storm never exercised GC (runs=%d erases=%d) — geometry too roomy for the property to bite", st.GCRuns, st.Erases)
	}
	if wa := st.WriteAmp(); wa <= 1 {
		t.Fatalf("write amplification %.3f under heavy overwrite churn, want > 1", wa)
	}
	if m.FreeBlocks() <= 0 {
		t.Fatalf("drive ran out of free blocks (%d): GC failed to reclaim", m.FreeBlocks())
	}
}

// TestPreconditioningShapesState pins the preconditioning contract: a
// fresh drive has no GC history and an empty map beyond the fill; an
// aged drive starts with spare blocks drawn down and relocation scars,
// yet zeroed run counters and idle timelines.
func TestPreconditioningShapesState(t *testing.T) {
	fresh := New(smallConfig(Greedy, 0), ssd.ZSSD, smallLBAs, 1)
	aged := New(smallConfig(Greedy, 3), ssd.ZSSD, smallLBAs, 1)
	if fresh.Stats().PrecondErases != 0 {
		t.Fatalf("fill-only preconditioning erased %d blocks; sequential fill must not trigger GC", fresh.Stats().PrecondErases)
	}
	if aged.Stats().PrecondErases == 0 {
		t.Fatal("churned preconditioning never erased a block; drive is not aged")
	}
	if aged.Stats().PrecondPrograms <= fresh.Stats().PrecondPrograms {
		t.Fatalf("aged drive programmed %d pages, fresh %d; churn must add work",
			aged.Stats().PrecondPrograms, fresh.Stats().PrecondPrograms)
	}
	for _, m := range []*Model{fresh, aged} {
		st := m.Stats()
		if st.UserReads != 0 || st.UserWrites != 0 || st.FlashPrograms != 0 || st.GCRuns != 0 {
			t.Fatalf("run counters not reset after preconditioning: %+v", st)
		}
		for p := range m.planes {
			if m.planes[p].busyAt != 0 {
				t.Fatalf("plane %d timeline %v after preconditioning, want idle", p, m.planes[p].busyAt)
			}
		}
	}
}

// TestUnmappedReadsBypassFlash pins the zero-fill path: reads of
// never-written LBAs touch no plane and count separately.
func TestUnmappedReadsBypassFlash(t *testing.T) {
	cfg := smallConfig(Greedy, 0)
	cfg.FillFrac = -1 // empty drive
	m := New(cfg, ssd.ZSSD, smallLBAs, 1)
	readCmd(m, 0, 100, 4)
	st := m.Stats()
	if st.UnmappedReads != 4 || st.FlashReads != 0 {
		t.Fatalf("unmapped=%d flashReads=%d, want 4 and 0", st.UnmappedReads, st.FlashReads)
	}
}

// TestWriteBufferStalls pins the DRAM buffer model: a burst deeper than
// BufEntries at one instant must stall on in-flight programs.
func TestWriteBufferStalls(t *testing.T) {
	m := newSmall(t, Greedy, 0, 1)
	for i := 0; i < 4*m.Config().BufEntries; i++ {
		// Same arrival time for all: programs can't drain between writes.
		writeCmd(m, 0, int64(i), 1)
	}
	if m.Stats().BufStalls == 0 {
		t.Fatal("a burst 4x deeper than the write buffer never stalled")
	}
}

// TestFlushDrainsBuffer pins flush semantics: after a flush admission
// every buffered program is accounted done, so an immediate second flush
// costs only FlushLatency.
func TestFlushDrainsBuffer(t *testing.T) {
	m := newSmall(t, Greedy, 0, 1)
	now := sim.Time(0)
	for i := 0; i < 8; i++ {
		now = writeCmd(m, now, int64(i), 1)
	}
	adm := m.Admit(now, nvme.Command{Opcode: nvme.OpFlush}, 1)
	if adm.Start < now {
		t.Fatalf("flush started %v before its admission %v", adm.Start, now)
	}
	again := m.Admit(adm.Done, nvme.Command{Opcode: nvme.OpFlush}, 1)
	if got, want := again.Done-again.Start, m.Config().FlushLatency; got != want {
		t.Fatalf("second flush media time %v, want bare FlushLatency %v", got, want)
	}
}

// TestDeterministicReplay pins determinism at the model level: two
// models built with the same seed and driven by the same admission
// sequence end bit-identical (Stats and full mapping state).
func TestDeterministicReplay(t *testing.T) {
	run := func() *Model {
		m := New(smallConfig(CostBenefit, 2), ssd.ZSSD, smallLBAs, 7)
		rng := sim.NewRand(99)
		now := sim.Time(0)
		for op := 0; op < 1500; op++ {
			lba := rng.Int63n(smallLBAs)
			if rng.Float64() < 0.6 {
				now = writeCmd(m, now, lba, 1)
			} else {
				now = readCmd(m, now, lba, 1)
			}
		}
		return m
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", a.Stats(), b.Stats())
	}
	if !reflect.DeepEqual(a.l2p, b.l2p) || !reflect.DeepEqual(a.ver, b.ver) {
		t.Fatal("same seed, different mapping state")
	}
}

// TestAdmissionMonotone verifies that every admission starts no earlier
// than its arrival and completes no earlier than it starts.
func TestAdmissionMonotone(t *testing.T) {
	m := newSmall(t, Greedy, 1, 3)
	rng := sim.NewRand(4)
	now := sim.Time(0)
	for op := 0; op < 1000; op++ {
		lba := rng.Int63n(smallLBAs)
		var adm ssd.Admission
		switch {
		case rng.Float64() < 0.5:
			adm = m.Admit(now, nvme.Command{Opcode: nvme.OpWrite, SLBA: uint64(lba)}, 1)
		case rng.Float64() < 0.9:
			adm = m.Admit(now, nvme.Command{Opcode: nvme.OpRead, SLBA: uint64(lba)}, 1)
		default:
			adm = m.Admit(now, nvme.Command{Opcode: nvme.OpFlush}, 1)
		}
		if adm.Start < now || adm.Done < adm.Start {
			t.Fatalf("op %d: non-monotone admission now=%v start=%v done=%v", op, now, adm.Start, adm.Done)
		}
		now = adm.Done
	}
}

// TestVictimPolicies pins the two policies' selection logic on a
// hand-built layout: greedy takes the emptiest block, cost-benefit
// prefers an older block over a slightly emptier hot one.
func TestVictimPolicies(t *testing.T) {
	m := newSmall(t, Greedy, 2, 5)
	now := sim.Time(sim.Milli(10))
	v := m.pickVictim(now)
	if v < 0 {
		t.Fatal("churned drive has no GC victim")
	}
	b := &m.blocks[v]
	if b.free || int(b.written) != m.ppb {
		t.Fatalf("greedy victim %d is not a full live block (free=%v written=%d)", v, b.free, b.written)
	}
	for i := range m.blocks {
		o := &m.blocks[i]
		if !o.free && int(o.written) == m.ppb && o.valid < b.valid {
			t.Fatalf("greedy picked block %d (%d valid) over block %d (%d valid)", v, b.valid, i, o.valid)
		}
	}
	m.cfg.GCPolicy = CostBenefit
	cb := m.pickVictim(now)
	if cb < 0 {
		t.Fatal("cost-benefit found no victim on the same layout")
	}
	// Aging a different reclaimable candidate far into the past must make
	// it win outright: its age term dwarfs every rival's.
	for i := range m.blocks {
		o := &m.blocks[i]
		if int32(i) != cb && !o.free && int(o.written) == m.ppb && int(o.valid) < m.ppb {
			o.lastMod = now - sim.Milli(1_000_000)
			if got := m.pickVictim(now); got != int32(i) {
				t.Fatalf("cost-benefit ignored an ancient reclaimable block: picked %d, want %d", got, i)
			}
			break
		}
	}
}
