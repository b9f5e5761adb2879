package smu

import (
	"testing"

	"hwdp/internal/mem"
	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/ssd"
)

// markDone is the benchmark's pre-bound completion callback: it flags the
// *bool passed as the miss's context argument, the way the MMU passes a
// pooled continuation record.
func markDone(arg any, _ Result, _ pagetable.Entry) { *arg.(*bool) = true }

// BenchmarkHandleMiss measures simulator throughput for the full hardware
// miss path (SMU + device model), in simulated misses per wall second,
// through HandleMissArg with a pre-bound callback as the MMU calls it.
func BenchmarkHandleMiss(b *testing.B) {
	eng := sim.NewEngine()
	prof := ssd.ZSSD
	prof.JitterFrac = 0
	dev := ssd.New(eng, prof, sim.NewRand(1), nil)
	dev.AddNamespace(nvme.Namespace{ID: 1, Blocks: 1 << 30})
	s := NewPerCore(eng, 0, 1<<16, PMSHREntries, 1)
	s.AttachDevice(0, dev, 1, 1)
	tbl := pagetable.New()
	recs := make([]FrameRecord, 0, 1024)
	for i := 0; i < 1024; i++ {
		recs = append(recs, RecordFor(mem.FrameID(i)))
	}
	done := false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.FreeQueue().Len()+s.FreeQueue().Buffered() < 8 {
			s.Refill(recs)
		}
		va := pagetable.VAddr(uint64(i)%(1<<30)) << 12
		pud, pmd, pte := tbl.Ensure(va)
		blk := pagetable.BlockAddr{LBA: uint64(i)}
		pte.Set(pagetable.MakeLBA(blk, pagetable.Prot{}))
		done = false
		s.HandleMissArg(Request{PUD: pud, PMD: pmd, PTE: pte, Block: blk}, markDone, &done)
		for !done && eng.Step() {
		}
	}
}

func BenchmarkFreeQueuePop(b *testing.B) {
	q := NewFreeQueue(1<<12, 16)
	recs := make([]FrameRecord, 1<<11)
	for i := range recs {
		recs[i] = RecordFor(mem.FrameID(i))
	}
	for i := 0; i < b.N; i++ {
		if _, _, ok := q.Pop(); !ok {
			q.Push(recs)
			q.Prefetch()
		}
	}
}

// TestBenchmarkMissShapeCompletes asserts the correctness of the loop
// BenchmarkHandleMiss measures: each miss completes with ResultOK and
// installs a resident-unsynced PTE naming an accepted frame.
func TestBenchmarkMissShapeCompletes(t *testing.T) {
	eng := sim.NewEngine()
	prof := ssd.ZSSD
	prof.JitterFrac = 0
	dev := ssd.New(eng, prof, sim.NewRand(1), nil)
	dev.AddNamespace(nvme.Namespace{ID: 1, Blocks: 1 << 30})
	s := NewPerCore(eng, 0, 1<<16, PMSHREntries, 1)
	s.AttachDevice(0, dev, 1, 1)
	recs := make([]FrameRecord, 0, 64)
	for i := 0; i < 64; i++ {
		recs = append(recs, RecordFor(mem.FrameID(i)))
	}
	s.Refill(recs)
	tbl := pagetable.New()
	for i := 0; i < 16; i++ {
		va := pagetable.VAddr(uint64(i)) << 12
		pud, pmd, pte := tbl.Ensure(va)
		blk := pagetable.BlockAddr{LBA: uint64(i)}
		pte.Set(pagetable.MakeLBA(blk, pagetable.Prot{}))
		done := false
		var got pagetable.Entry
		s.HandleMissArg(Request{PUD: pud, PMD: pmd, PTE: pte, Block: blk},
			func(_ any, r Result, e pagetable.Entry) {
				if r != ResultOK {
					t.Fatalf("miss %d: result %v", i, r)
				}
				done, got = true, e
			}, nil)
		for !done && eng.Step() {
		}
		if !done {
			t.Fatalf("miss %d never completed", i)
		}
		if got.State() != pagetable.StateResidentUnsynced {
			t.Fatalf("miss %d installed state %v", i, got.State())
		}
	}
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after drain", s.Outstanding())
	}
}
