package pagetable

import "testing"

func BenchmarkWalk(b *testing.B) {
	t := New()
	for i := 0; i < 4096; i++ {
		t.Set(VAddr(i)<<12, MakePresent(1, Prot{}, true))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _, _ = t.Walk(VAddr(i&4095) << 12)
	}
}

func BenchmarkEnsure(b *testing.B) {
	t := New()
	for i := 0; i < b.N; i++ {
		t.Ensure(VAddr(i%(1<<20)) << 12)
	}
}

func BenchmarkScanUnsynced(b *testing.B) {
	t := New()
	for i := 0; i < 1<<16; i++ {
		pud, pmd, pte := t.Ensure(VAddr(i) << 12)
		pte.Set(MakePresent(1, Prot{}, false))
		MarkUnsynced(pud, pmd)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The scan is read-only, so each iteration does the same work.
		t.ScanUnsynced(0, MaxVAddr, func(va VAddr, p EntryRef) {})
	}
}

func BenchmarkEntryEncodeDecode(b *testing.B) {
	var sink Entry
	for i := 0; i < b.N; i++ {
		e := MakeLBA(BlockAddr{SID: 1, DeviceID: 2, LBA: uint64(i)}, Prot{Write: true})
		_ = e.Block()
		sink |= e
	}
	_ = sink
}

// TestWalkSeesEnsuredEntries asserts the correctness of the operations the
// benchmarks above measure: entries installed through Ensure/Set are found
// by Walk with their payload intact.
func TestWalkSeesEnsuredEntries(t *testing.T) {
	tbl := New()
	tbl.Set(VAddr(5)<<12, MakePresent(99, Prot{Write: true}, true))
	_, _, pte, ok := tbl.Walk(VAddr(5) << 12)
	if !ok {
		t.Fatal("walk missed an installed entry")
	}
	if e := pte.Get(); e.PFN() != 99 || !e.Prot().Write {
		t.Fatalf("walked entry %#x, want pfn 99 writable", uint64(e))
	}
	// A neighboring, never-set slot shares the PTE page but must read as
	// an empty (not-present, OS-handled) entry.
	if _, _, pte6, ok := tbl.Walk(VAddr(6) << 12); ok && pte6.Get().State() != StateNotPresentOS {
		t.Fatalf("unset slot reads %v, want empty", pte6.Get().State())
	}
	if _, _, _, ok := tbl.Walk(VAddr(1) << 30); ok {
		t.Fatal("walk fabricated tables for an untouched region")
	}
}
