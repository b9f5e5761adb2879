package smu

import (
	"testing"

	"hwdp/internal/mem"
	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/ssd"
)

// TestMissPathAllocationBudget pins the steady-state allocation count of the
// full hardware miss path — SMU admission, PMSHR insertion, NVMe command
// issue, device service, completion snoop, page-table update and waiter
// notification — at zero. Every object on this path (events, PMSHR entries,
// admission carriers, device flights) is pooled, so after warm-up a miss
// must not touch the heap. AllocsPerRun's warm-up run fills the pools before
// the measured runs.
func TestMissPathAllocationBudget(t *testing.T) {
	eng := sim.NewEngine()
	prof := ssd.ZSSD
	prof.JitterFrac = 0
	dev := ssd.New(eng, prof, sim.NewRand(1), nil)
	dev.AddNamespace(nvme.Namespace{ID: 1, Blocks: 1 << 30})
	s := NewPerCore(eng, 0, 1<<16, PMSHREntries, 1)
	s.AttachDevice(0, dev, 1, 1)

	// Pre-build everything the driver loop needs so the measurement sees
	// only the miss path itself, not test scaffolding.
	tbl := pagetable.New()
	recs := make([]FrameRecord, 0, 1<<12)
	for i := 0; i < 1<<12; i++ {
		recs = append(recs, RecordFor(mem.FrameID(i)))
	}
	s.Refill(recs)
	const pages = 64
	type site struct {
		pud, pmd pagetable.EntryRef
		pte      pagetable.EntryRef
		blk      pagetable.BlockAddr
	}
	sites := make([]site, pages)
	for i := range sites {
		va := pagetable.VAddr(i) << 12
		pud, pmd, pte := tbl.Ensure(va)
		sites[i] = site{pud: pud, pmd: pmd, pte: pte, blk: pagetable.BlockAddr{LBA: uint64(i)}}
	}
	done := false
	iter := 0

	got := testing.AllocsPerRun(500, func() {
		if s.FreeQueue().Len()+s.FreeQueue().Buffered() < 8 {
			s.Refill(recs)
		}
		st := &sites[iter%pages]
		iter++
		st.pte.Set(pagetable.MakeLBA(st.blk, pagetable.Prot{}))
		done = false
		s.HandleMissArg(Request{PUD: st.pud, PMD: st.pmd, PTE: st.pte, Block: st.blk}, markDone, &done)
		for !done && eng.Step() {
		}
		if !done {
			t.Fatal("miss never completed")
		}
	})
	if got != 0 {
		t.Fatalf("steady-state miss path allocates %.1f objects/op, want 0", got)
	}
}
