package check

import (
	"testing"

	"hwdp/internal/core"
	"hwdp/internal/fs"
	"hwdp/internal/kernel"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
)

func buildSystem(t *testing.T) *core.System {
	t.Helper()
	cfg := core.DefaultConfig(kernel.HWDP)
	cfg.MemoryBytes = 8 << 20
	cfg.FSBlocks = 1 << 16
	cfg.DeviceJitter = false
	cfg.Kernel.KptedPeriod = 2 * sim.Millisecond
	return cfg.Build()
}

func TestCleanSystemHasNoViolations(t *testing.T) {
	s := buildSystem(t)
	if vs := System(s); len(vs) != 0 {
		t.Fatalf("violations on fresh machine: %v", vs)
	}
}

func TestBusySystemHasNoViolations(t *testing.T) {
	s := buildSystem(t)
	va, _, err := s.MapFile("f", 4096, fs.SeededInit(1), s.FastFlags())
	if err != nil {
		t.Fatal(err)
	}
	th := s.WorkloadThread(0)
	rng := sim.NewRand(3)
	done := 0
	var step func()
	step = func() {
		if done >= 1500 {
			return
		}
		done++
		s.K.Access(th, va+pagetable.VAddr(rng.Intn(4096)*4096), rng.Intn(4) == 0,
			func(mmu.Result) { step() })
	}
	step()
	s.RunWhile(func() bool { return done < 1500 })
	s.RunFor(20 * sim.Millisecond)
	if vs := System(s); len(vs) != 0 {
		t.Fatalf("violations after workload: %v", vs)
	}
}

func TestDetectsAliasedFrames(t *testing.T) {
	s := buildSystem(t)
	va, _, _ := s.MapFile("f", 8, fs.SeededInit(1), s.FastFlags())
	th := s.WorkloadThread(0)
	ok := false
	s.K.Access(th, va, false, func(mmu.Result) { ok = true })
	s.RunWhile(func() bool { return !ok })
	// Corrupt the table: alias page 1 onto page 0's frame.
	e, _ := s.Proc.AS.Table.Lookup(va)
	s.Proc.AS.Table.Set(va+4096, pagetable.MakePresent(e.PFN(), pagetable.Prot{}, true))
	found := false
	for _, v := range System(s) {
		if v.Invariant == "no-aliasing" {
			found = true
		}
	}
	if !found {
		t.Fatal("aliased frame not detected")
	}
}

func TestDetectsUnallocatedFrame(t *testing.T) {
	s := buildSystem(t)
	va, _, _ := s.MapFile("f", 8, nil, s.FastFlags())
	// Map a frame the allocator never handed out.
	s.Proc.AS.Table.Set(va, pagetable.MakePresent(1<<30, pagetable.Prot{}, true))
	found := false
	for _, v := range System(s) {
		if v.Invariant == "pte-frame" {
			found = true
		}
	}
	if !found {
		t.Fatal("unallocated frame not detected")
	}
}

func TestDetectsUncachedSyncedPTE(t *testing.T) {
	s := buildSystem(t)
	va, _, _ := s.MapFile("f", 8, nil, s.FastFlags())
	// An OS-synced PTE naming an allocated frame that backs no cached page.
	frame, err := s.Mem.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	s.Proc.AS.Table.Set(va, pagetable.MakePresent(frame, pagetable.Prot{}, true))
	found := false
	for _, v := range System(s) {
		if v.Invariant == "pte-pagecache" {
			found = true
		}
	}
	if !found {
		t.Fatal("synced PTE outside the page cache not detected")
	}
}

func TestDetectsBadSID(t *testing.T) {
	s := buildSystem(t)
	va, _, _ := s.MapFile("f", 8, nil, s.FastFlags())
	s.Proc.AS.Table.Set(va, pagetable.MakeLBA(
		pagetable.BlockAddr{SID: 5, LBA: 1}, pagetable.Prot{}))
	found := false
	for _, v := range System(s) {
		if v.Invariant == "sid-routing" {
			found = true
		}
	}
	if !found {
		t.Fatal("bad SID not detected")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{"x", "y"}
	if v.String() != "x: y" {
		t.Fatal("render")
	}
}
