package pagetable

import (
	"testing"
	"testing/quick"

	"hwdp/internal/mem"
)

func TestVAddrHelpers(t *testing.T) {
	v := VAddr(0x12345678)
	if v.PageBase() != 0x12345000 {
		t.Fatalf("base = %#x", uint64(v.PageBase()))
	}
	if v.PageNumber() != 0x12345 {
		t.Fatalf("vpn = %#x", v.PageNumber())
	}
}

func TestEnsureAndLookup(t *testing.T) {
	tbl := New()
	va := VAddr(0x7f00_0042_3000)
	if _, ok := tbl.Lookup(va); ok {
		t.Fatal("lookup before ensure should fail")
	}
	e := MakePresent(99, Prot{Write: true}, true)
	tbl.Set(va, e)
	got, ok := tbl.Lookup(va)
	if !ok || got != e {
		t.Fatalf("lookup = %#x, %v", uint64(got), ok)
	}
	// Neighboring page in same leaf: structure exists, entry zero.
	got, ok = tbl.Lookup(va + 4096)
	if !ok || got != 0 {
		t.Fatalf("neighbor = %#x, %v", uint64(got), ok)
	}
}

func TestWalkRefsAreTheThreeEntries(t *testing.T) {
	tbl := New()
	va := VAddr(0x5555_5555_5000)
	tbl.Set(va, MakeLBA(BlockAddr{LBA: 7}, Prot{}))
	pud, pmd, pte, ok := tbl.Walk(va)
	if !ok {
		t.Fatal("walk failed")
	}
	if pud.Level() != LevelPUD || pmd.Level() != LevelPMD || pte.Level() != LevelPTE {
		t.Fatalf("levels = %d %d %d", pud.Level(), pmd.Level(), pte.Level())
	}
	addrs := map[EntryAddr]bool{pud.Addr(): true, pmd.Addr(): true, pte.Addr(): true}
	if len(addrs) != 3 {
		t.Fatal("entry addresses collide")
	}
	if pte.Get().Block().LBA != 7 {
		t.Fatal("pte ref does not read installed entry")
	}
	pte.Set(MakePresent(3, Prot{}, false))
	got, _ := tbl.Lookup(va)
	if got.PFN() != 3 {
		t.Fatal("pte ref write not visible via lookup")
	}
}

func TestWalkNonCanonical(t *testing.T) {
	tbl := New()
	if _, _, _, ok := tbl.Walk(MaxVAddr); ok {
		t.Fatal("walk of non-canonical address should fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Ensure of non-canonical should panic")
		}
	}()
	tbl.Ensure(MaxVAddr + 4096)
}

func TestEntryAddrStableAndUnique(t *testing.T) {
	tbl := New()
	a1 := VAddr(0x1000_0000_0000)
	a2 := a1 + 4096
	tbl.Set(a1, MakeSwap(1, Prot{}))
	tbl.Set(a2, MakeSwap(2, Prot{}))
	_, _, p1, _ := tbl.Walk(a1)
	_, _, p2, _ := tbl.Walk(a2)
	if p1.Addr() == p2.Addr() {
		t.Fatal("distinct PTEs share an address")
	}
	_, _, p1b, _ := tbl.Walk(a1)
	if p1.Addr() != p1b.Addr() {
		t.Fatal("PTE address not stable")
	}
}

func TestNodesAccounting(t *testing.T) {
	tbl := New()
	if tbl.Nodes() != 1 {
		t.Fatalf("fresh table nodes = %d", tbl.Nodes())
	}
	tbl.Set(0, MakeSwap(0, Prot{}))
	if tbl.Nodes() != 4 { // PGD + PUD + PMD + leaf
		t.Fatalf("nodes = %d", tbl.Nodes())
	}
	// Same 2 MiB region: no new tables.
	tbl.Set(4096, MakeSwap(0, Prot{}))
	if tbl.Nodes() != 4 {
		t.Fatalf("nodes = %d", tbl.Nodes())
	}
	// Different PMD region.
	tbl.Set(VAddr(2<<20), MakeSwap(0, Prot{}))
	if tbl.Nodes() != 5 {
		t.Fatalf("nodes = %d", tbl.Nodes())
	}
}

func TestMarkUnsyncedAndScan(t *testing.T) {
	tbl := New()
	vas := []VAddr{0x1000, 0x2000, VAddr(4 << 20), VAddr(3 << 30)}
	for i, va := range vas {
		pud, pmd, pte := tbl.Ensure(va)
		pte.Set(MakePresent(mem2Frame(i), Prot{}, false)) // hardware-handled
		MarkUnsynced(pud, pmd)
	}
	// One extra synced resident PTE that must not match.
	tbl.Set(0x3000, MakePresent(77, Prot{}, true))

	var found []VAddr
	st := tbl.ScanUnsynced(0, MaxVAddr, func(va VAddr, pte EntryRef) {
		found = append(found, va)
		pte.Set(pte.Get().ClearFlags(FlagLBA))
	})
	if st.PTEsMatched != uint64(len(vas)) {
		t.Fatalf("matched = %d, want %d", st.PTEsMatched, len(vas))
	}
	seen := map[VAddr]bool{}
	for _, va := range found {
		seen[va] = true
	}
	for _, va := range vas {
		if !seen[va.PageBase()] {
			t.Fatalf("missing %#x in %v", uint64(va), found)
		}
	}
	// Second scan, after kpted's clear: everything synced, upper bits
	// cleared, all tables skipped.
	tbl.ClearSyncMarks()
	st2 := tbl.ScanUnsynced(0, MaxVAddr, func(VAddr, EntryRef) { t.Fatal("nothing should match") })
	if st2.PTEsMatched != 0 {
		t.Fatal("second scan matched")
	}
	if st2.TablesScanned != 0 {
		t.Fatalf("second scan visited %d leaf tables; upper-level skip broken", st2.TablesScanned)
	}
}

func mem2Frame(i int) mem.FrameID { return mem.FrameID(i + 1) }

func TestScanSkipsCleanSubtrees(t *testing.T) {
	tbl := New()
	// 64 leaf tables populated, only one unsynced.
	for i := 0; i < 64; i++ {
		va := VAddr(i) << 21 // one per PMD entry
		tbl.Set(va, MakePresent(mem.FrameID(i+1), Prot{}, true))
	}
	dirty := VAddr(5) << 21
	pud, pmd, pte := tbl.Ensure(dirty)
	pte.Set(MakePresent(999, Prot{}, false))
	MarkUnsynced(pud, pmd)

	st := tbl.ScanUnsynced(0, MaxVAddr, func(va VAddr, pte EntryRef) {
		pte.Set(pte.Get().ClearFlags(FlagLBA))
	})
	if st.PTEsMatched != 1 {
		t.Fatalf("matched = %d", st.PTEsMatched)
	}
	if st.TablesScanned != 1 {
		t.Fatalf("scanned %d leaf tables, want 1 (skip the clean 63)", st.TablesScanned)
	}
	if st.TablesSkipped != 63 {
		t.Fatalf("skipped = %d, want 63", st.TablesSkipped)
	}
}

func TestScanAll(t *testing.T) {
	tbl := New()
	vas := []VAddr{0x1000, VAddr(7 << 21), VAddr(9 << 30)}
	for _, va := range vas {
		tbl.Set(va, MakeLBA(BlockAddr{LBA: uint64(va)}, Prot{}))
	}
	got := map[VAddr]bool{}
	tbl.ScanAll(func(va VAddr, pte EntryRef) { got[va] = true })
	if len(got) != len(vas) {
		t.Fatalf("scanall found %d", len(got))
	}
	for _, va := range vas {
		if !got[va] {
			t.Fatalf("missing %#x", uint64(va))
		}
	}
}

// Property: for random sets of pages, Set then Lookup round-trips and
// ScanAll reconstructs exactly the set of installed VAs.
func TestTableRoundTripProperty(t *testing.T) {
	f := func(pages []uint32) bool {
		tbl := New()
		want := map[VAddr]Entry{}
		for i, p := range pages {
			if len(want) > 200 {
				break
			}
			va := (VAddr(p) << 12) % MaxVAddr
			va = va.PageBase()
			e := MakeSwap(uint64(i+1), Prot{})
			tbl.Set(va, e)
			want[va] = e
		}
		for va, e := range want {
			got, ok := tbl.Lookup(va)
			if !ok || got != e {
				return false
			}
		}
		n := 0
		okAll := true
		tbl.ScanAll(func(va VAddr, pte EntryRef) {
			n++
			if want[va] != pte.Get() {
				okAll = false
			}
		})
		return okAll && n == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
