package core

import (
	"testing"

	"hwdp/internal/fs"
	"hwdp/internal/kernel"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/ssd/modeled"
)

// accessSync performs one access and steps the engine to completion.
func accessSync(t *testing.T, s *System, th *kernel.Thread, va pagetable.VAddr) (mmu.Outcome, sim.Time) {
	t.Helper()
	start := s.Eng.Now()
	var out mmu.Outcome = -1
	var end sim.Time
	s.K.Access(th, va, false, func(r mmu.Result) { out, end = r.Outcome, s.Eng.Now() })
	s.RunWhile(func() bool { return out == -1 })
	if out == -1 {
		t.Fatal("access hung")
	}
	return out, end - start
}

func TestSequentialPrefetcher(t *testing.T) {
	cfg := smallConfig(kernel.HWDP)
	cfg.PrefetchDegree = 2
	s := cfg.Build()
	va, _, err := s.MapFile("seq", 64, fs.SeededInit(1), s.FastFlags())
	if err != nil {
		t.Fatal(err)
	}
	th := s.WorkloadThread(0)
	// First access misses and triggers prefetch of pages 1 and 2.
	out, lat0 := accessSync(t, s, th, va)
	if out != mmu.OutcomeHW {
		t.Fatalf("first access = %v", out)
	}
	// Let the prefetches land.
	s.RunFor(50 * sim.Microsecond)
	if s.MMU.Stats().Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
	// Sequential successor: already resident (TLB or walk hit), far faster.
	out, lat1 := accessSync(t, s, th, va+4096)
	if out == mmu.OutcomeHW || out == mmu.OutcomeOSFault {
		t.Fatalf("prefetched page still missed: %v", out)
	}
	if lat1 >= lat0/10 {
		t.Fatalf("prefetched access took %v (miss took %v)", lat1, lat0)
	}
	// Prefetched pages carry valid content.
	buf := make([]byte, 16)
	want := make([]byte, fs.PageBytes)
	fs.SeededInit(1)(2, want)
	got := false
	s.K.Load(th, va+2*4096, buf, func(mmu.Result) { got = true })
	s.RunWhile(func() bool { return !got })
	for i := range buf {
		if buf[i] != want[i] {
			t.Fatal("prefetched content wrong")
		}
	}
}

func TestPrefetcherDisabledByDefault(t *testing.T) {
	s := smallConfig(kernel.HWDP).Build()
	va, _, _ := s.MapFile("seq", 16, nil, s.FastFlags())
	th := s.WorkloadThread(0)
	accessSync(t, s, th, va)
	if s.MMU.Stats().Prefetches != 0 {
		t.Fatal("prefetches issued with degree 0")
	}
	out, _ := accessSync(t, s, th, va+4096)
	if out != mmu.OutcomeHW {
		t.Fatalf("successor should miss without prefetch: %v", out)
	}
}

func TestPrefetcherStopsAtNonLBAPages(t *testing.T) {
	cfg := smallConfig(kernel.HWDP)
	cfg.PrefetchDegree = 4
	s := cfg.Build()
	// Anonymous region: first-touch constant pages must NOT be prefetched
	// (a speculative zero-fill would allocate frames for pages never
	// touched).
	va, err := s.K.MmapAnon(s.Proc, 0, 0, 16, pagetable.Prot{Write: true, User: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	th := s.WorkloadThread(0)
	accessSync(t, s, th, va)
	if s.MMU.Stats().Prefetches != 0 {
		t.Fatal("prefetcher speculated on anonymous first-touch pages")
	}
}

func TestPerCoreFreeQueues(t *testing.T) {
	cfg := smallConfig(kernel.HWDP)
	cfg.PerCoreFreeQueues = true
	s := cfg.Build()
	if got := len(s.SMUs[0].Queues()); got != cfg.Cores*2 {
		t.Fatalf("queues = %d, want %d", got, cfg.Cores*2)
	}
	va, _, err := s.MapFile("f", 256, fs.SeededInit(1), s.FastFlags())
	if err != nil {
		t.Fatal(err)
	}
	// Two threads on different cores fault concurrently; each consumes
	// from its own queue.
	t0, t1 := s.WorkloadThread(0), s.WorkloadThread(1)
	q0 := s.SMUs[0].Queues()[t0.HW.ID]
	q4 := s.SMUs[0].Queues()[t1.HW.ID]
	pops0, pops4 := q0.Pops(), q4.Pops()
	done := 0
	for i, th := range []*kernel.Thread{t0, t1} {
		th := th
		s.K.Access(th, va+pagetable.VAddr(i*8*4096), false, func(mmu.Result) { done++ })
	}
	s.RunWhile(func() bool { return done < 2 })
	if q0.Pops() != pops0+1 {
		t.Fatalf("core-0 queue pops = %d, want %d", q0.Pops(), pops0+1)
	}
	if q4.Pops() != pops4+1 {
		t.Fatalf("core-2 queue pops = %d, want %d", q4.Pops(), pops4+1)
	}
	// Other queues untouched by these two misses.
	var othersPopped int
	for i, q := range s.SMUs[0].Queues() {
		if i == t0.HW.ID || i == t1.HW.ID {
			continue
		}
		othersPopped += int(q.Pops())
	}
	if othersPopped != 0 {
		t.Fatalf("foreign queues popped %d times", othersPopped)
	}
}

func TestPerCoreQueuesRefillAll(t *testing.T) {
	cfg := smallConfig(kernel.HWDP)
	cfg.PerCoreFreeQueues = true
	s := cfg.Build()
	for i, q := range s.SMUs[0].Queues() {
		if q.Len()+q.Buffered() == 0 {
			t.Fatalf("queue %d not primed at start", i)
		}
	}
}

func TestMultiSocketRouting(t *testing.T) {
	cfg := smallConfig(kernel.HWDP)
	cfg.Sockets = 2
	s := cfg.Build()
	if len(s.SMUs) != 2 || len(s.Devs) != 2 || len(s.FSs) != 2 {
		t.Fatalf("sockets built: %d/%d/%d", len(s.SMUs), len(s.Devs), len(s.FSs))
	}
	va0, _, err := s.MapFileOn(0, "f0", 16, fs.SeededInit(1), s.FastFlags())
	if err != nil {
		t.Fatal(err)
	}
	va1, _, err := s.MapFileOn(1, "f1", 16, fs.SeededInit(2), s.FastFlags())
	if err != nil {
		t.Fatal(err)
	}
	// SIDs encoded in the PTEs route each miss to its home SMU.
	e0, _ := s.Proc.AS.Table.Lookup(va0)
	e1, _ := s.Proc.AS.Table.Lookup(va1)
	if e0.Block().SID != 0 || e1.Block().SID != 1 {
		t.Fatalf("SIDs = %d, %d", e0.Block().SID, e1.Block().SID)
	}
	th := s.WorkloadThread(0)
	if out, _ := accessSync(t, s, th, va0); out != mmu.OutcomeHW {
		t.Fatalf("socket-0 access = %v", out)
	}
	if out, _ := accessSync(t, s, th, va1); out != mmu.OutcomeHW {
		t.Fatalf("socket-1 access = %v", out)
	}
	if s.SMUs[0].Stats().Handled != 1 || s.SMUs[1].Stats().Handled != 1 {
		t.Fatalf("SMU handled: %d, %d", s.SMUs[0].Stats().Handled, s.SMUs[1].Stats().Handled)
	}
	if s.Devs[0].Stats().Reads != 1 || s.Devs[1].Stats().Reads != 1 {
		t.Fatalf("device reads: %d, %d", s.Devs[0].Stats().Reads, s.Devs[1].Stats().Reads)
	}
	// Content arrives from the right file system.
	buf := make([]byte, 8)
	want := make([]byte, fs.PageBytes)
	fs.SeededInit(2)(0, want)
	got := false
	s.K.Load(th, va1, buf, func(mmu.Result) { got = true })
	s.RunWhile(func() bool { return !got })
	for i := range buf {
		if buf[i] != want[i] {
			t.Fatal("socket-1 content wrong")
		}
	}
}

func TestMultiSocketKpooldRefillsAll(t *testing.T) {
	cfg := smallConfig(kernel.HWDP)
	cfg.Sockets = 3
	s := cfg.Build()
	for i, u := range s.SMUs {
		if u.FreeQueue().Len()+u.FreeQueue().Buffered() == 0 {
			t.Fatalf("socket %d free queue not primed", i)
		}
	}
}

func TestTooManySocketsErrors(t *testing.T) {
	cfg := smallConfig(kernel.HWDP)
	cfg.Sockets = 9
	sys, err := NewSystem(cfg)
	if err == nil || sys != nil {
		t.Fatalf("want nil system + error (SID field is 3 bits), got %v, %v", sys, err)
	}
	cfg.Sockets = 8
	if err := cfg.Validate(); err != nil {
		t.Fatalf("8 sockets must validate: %v", err)
	}
	cfg.Sockets = 0
	cfg.SSDBackend = "bogus"
	if err := cfg.Validate(); err == nil {
		t.Fatal("want error for unknown SSD backend")
	}
}

func TestLogStructuredFSEndToEnd(t *testing.T) {
	// CoW/LFS file system under HWDP: a dirty page is written back to a
	// NEW block; the kernel's remap hook patches the (by then re-augmented)
	// PTE, and the refault reads the moved data from the new location.
	cfg := smallConfig(kernel.HWDP)
	cfg.MemoryBytes = 128 * 4096
	cfg.LogStructuredFS = true
	cfg.Kernel.KptedPeriod = sim.Millisecond
	s := cfg.Build()
	va, f, err := s.MapFile("lfs", 256, fs.SeededInit(1), s.FastFlags())
	if err != nil {
		t.Fatal(err)
	}
	th := s.WorkloadThread(0)
	origBlk, _ := s.FS.Block(f, 0)
	marker := []byte("log structured survivor")
	ok := false
	s.K.Store(th, va+50, marker, func(mmu.Result) { ok = true })
	s.RunWhile(func() bool { return !ok })
	// Flood to evict page 0 (dirty → writeback → LFS remap).
	for i := 1; i < 256; i++ {
		done := false
		s.K.Access(th, va+pagetable.VAddr(i*4096), false, func(mmu.Result) { done = true })
		s.RunWhile(func() bool { return !done })
	}
	s.RunFor(50 * sim.Millisecond)
	e, _ := s.Proc.AS.Table.Lookup(va)
	if e.Present() {
		t.Skip("page 0 survived eviction pressure")
	}
	newBlk, _ := s.FS.Block(f, 0)
	if newBlk.LBA == origBlk.LBA {
		t.Fatal("LFS writeback did not move the block")
	}
	if got := e.Block().LBA; got != newBlk.LBA {
		t.Fatalf("PTE holds LBA %d, file moved to %d", got, newBlk.LBA)
	}
	if s.K.Stats().RemapPatchedPTE == 0 {
		t.Fatal("no PTEs patched")
	}
	// Refault from the new location: content intact.
	buf := make([]byte, len(marker))
	got := false
	s.K.Load(th, va+50, buf, func(mmu.Result) { got = true })
	s.RunWhile(func() bool { return !got })
	for i := range marker {
		if buf[i] != marker[i] {
			t.Fatalf("content lost across LFS move: %q", buf)
		}
	}
}

// TestModeledBackendEndToEnd smoke-tests the full stack on one socket with
// a modeled (FTL + GC) device on tight geometry and churned
// preconditioning: misses complete, the FTL sees the device's read
// traffic, write-backs land as buffered programs, and the invariants audit
// clean afterwards.
func TestModeledBackendEndToEnd(t *testing.T) {
	cfg := smallConfig(kernel.HWDP)
	cfg.DeviceJitter = true // keep the PRNG-coupled device paths in play
	cfg.Seed = 23
	cfg.SSDBackend = "modeled"
	cfg.SSDModeled = modeled.Config{
		Channels:        2,
		WaysPerChannel:  1,
		PlanesPerWay:    2,
		PagesPerBlock:   16,
		OPFrac:          0.15,
		MapEntries:      256,
		BufEntries:      8,
		ChurnOverwrites: 2,
	}
	s := cfg.Build()
	va, _, err := s.MapFileOn(0, "f", 128, fs.SeededInit(7), s.FastFlags())
	if err != nil {
		t.Fatal(err)
	}
	th := s.WorkloadThread(0)
	for page := 0; page < 128; page++ {
		var done bool
		s.K.Access(th, va+pagetable.VAddr(page)*4096, page%2 == 0, func(mmu.Result) { done = true })
		s.RunWhile(func() bool { return !done })
	}
	var done bool
	s.K.Msync(th, va, func() { done = true })
	s.RunWhile(func() bool { return !done })
	m := s.ModeledSSDs[0]
	st := m.Stats()
	if st.UserReads == 0 {
		t.Fatal("modeled backend saw no read traffic — seam not wired")
	}
	if st.UserWrites == 0 {
		t.Fatal("msync produced no modeled write traffic")
	}
	if st.PrecondErases == 0 {
		t.Fatal("churned preconditioning left no GC history")
	}
	if vs := m.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("FTL invariants violated after end-to-end run: %v", vs[0])
	}
	ds := s.Devs[0].Stats()
	if ds.MediaBusySum == 0 || ds.Reads == 0 {
		t.Fatalf("device stats not accounted: %+v", ds)
	}
}
