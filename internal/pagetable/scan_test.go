package pagetable

import (
	"math/rand"
	"slices"
	"testing"

	"hwdp/internal/mem"
)

// slot is one visited PTE: its page and its entry address.
type slot struct {
	va   VAddr
	addr EntryAddr
}

// walkRef is the reference the range scans replace: the per-page loop
// msync, munmap and fork ran over a mapping, Walking every page of
// [lo, hi) and keeping each slot whose leaf table exists (or, with
// unsynced set, each resident/unsynced PTE).
func walkRef(tbl *Table, lo, hi VAddr, unsynced bool) []slot {
	var out []slot
	for va := lo; va < hi; va += mem.PageSize {
		_, _, pte, ok := tbl.Walk(va)
		if !ok {
			continue
		}
		if unsynced && pte.Get().State() != StateResidentUnsynced {
			continue
		}
		out = append(out, slot{va, pte.Addr()})
	}
	return out
}

// syncMarks counts the PUD and PMD entries carrying the sync mark.
func syncMarks(tbl *Table) int {
	n := 0
	for _, pudNode := range tbl.root.children {
		if pudNode == nil {
			continue
		}
		for ui, pmdNode := range pudNode.children {
			if pudNode.entries[ui]&FlagLBA != 0 {
				n++
			}
			if pmdNode == nil {
				continue
			}
			for mi := range pmdNode.entries {
				if pmdNode.entries[mi]&FlagLBA != 0 {
					n++
				}
			}
		}
	}
	return n
}

// Property: over random installs, msync-style range syncs and kpted passes,
// the read-only, range-bounded ScanUnsynced visits exactly the PTEs the
// per-page Walk reference finds, in the same order, and Range visits
// exactly the slots Walk reaches. After kpted's ClearSyncMarks no mark is
// left, and installs after it are found by the next scans.
func TestScanUnsyncedMatchesWalkReference(t *testing.T) {
	const winPages = 2048 // 8 MiB: four leaf tables each side of the boundary
	// Two windows, straddling a PUD boundary (1 GiB) and a PGD boundary
	// (512 GiB), so ranges cross every level of the tree.
	windows := []VAddr{1<<30 - winPages/2*mem.PageSize, 1<<39 - winPages/2*mem.PageSize}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tbl := New()
		page := func(w VAddr, i int) VAddr { return w + VAddr(i)*mem.PageSize }
		randRange := func() (VAddr, VAddr) {
			w := windows[rng.Intn(len(windows))]
			a, b := rng.Intn(winPages+1), rng.Intn(winPages+1)
			if a > b {
				a, b = b, a
			}
			lo, hi := page(w, a), page(w, b)
			if rng.Intn(3) == 0 { // snap to leaf-table boundaries
				lo &^= 1<<21 - 1
				hi = (hi + 1<<21 - 1) &^ (1<<21 - 1)
			}
			return lo, hi
		}
		frame := mem.FrameID(1)
		for round := 0; round < 30; round++ {
			for n := rng.Intn(40); n > 0; n-- {
				va := page(windows[rng.Intn(len(windows))], rng.Intn(winPages))
				pud, pmd, pte := tbl.Ensure(va)
				frame++
				switch rng.Intn(5) {
				case 0, 1: // a hardware install
					pte.Set(MakePresent(frame, Prot{User: true}, false))
					MarkUnsynced(pud, pmd)
				case 2:
					pte.Set(MakePresent(frame, Prot{User: true}, true))
				case 3:
					pte.Set(MakeLBA(BlockAddr{LBA: uint64(frame)}, Prot{User: true}))
				default:
					pte.Set(0)
				}
			}
			for n := 0; n < 4; n++ {
				lo, hi := randRange()
				var got []slot
				tbl.Range(lo, hi, func(va VAddr, pte EntryRef) { got = append(got, slot{va, pte.Addr()}) })
				if want := walkRef(tbl, lo, hi, false); !slices.Equal(got, want) {
					t.Fatalf("seed %d: Range[%#x, %#x) visited %d slots, Walk reaches %d", seed, uint64(lo), uint64(hi), len(got), len(want))
				}
				// A read-only scan, then an msync-style sync of the range.
				marks := syncMarks(tbl)
				want := walkRef(tbl, lo, hi, true)
				for _, syncing := range []bool{false, true} {
					got = got[:0]
					st := tbl.ScanUnsynced(lo, hi, func(va VAddr, pte EntryRef) {
						got = append(got, slot{va, pte.Addr()})
						if syncing {
							pte.Set(pte.Get().ClearFlags(FlagLBA))
						}
					})
					if !slices.Equal(got, want) || st.PTEsMatched != uint64(len(want)) {
						t.Fatalf("seed %d: ScanUnsynced[%#x, %#x) matched %d, Walk finds %d", seed, uint64(lo), uint64(hi), len(got), len(want))
					}
					if syncMarks(tbl) != marks {
						t.Fatalf("seed %d: ScanUnsynced changed the sync marks", seed)
					}
				}
				if left := walkRef(tbl, lo, hi, true); len(left) != 0 {
					t.Fatalf("seed %d: %d unsynced PTEs left after syncing the range", seed, len(left))
				}
			}
			if rng.Intn(3) == 0 { // a kpted pass over the whole table
				var want []slot
				for _, w := range windows {
					want = append(want, walkRef(tbl, w, page(w, winPages), true)...)
				}
				var got []slot
				st := tbl.ScanUnsynced(0, MaxVAddr, func(va VAddr, pte EntryRef) {
					got = append(got, slot{va, pte.Addr()})
					pte.Set(pte.Get().ClearFlags(FlagLBA))
				})
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d: kpted scan matched %d, Walk finds %d", seed, len(got), len(want))
				}
				if st.PTEsVisited != EntriesPerTable*st.TablesScanned {
					t.Fatalf("seed %d: kpted visited %d PTEs in %d tables", seed, st.PTEsVisited, st.TablesScanned)
				}
				tbl.ClearSyncMarks()
				if n := syncMarks(tbl); n != 0 {
					t.Fatalf("seed %d: %d sync marks left after kpted's clear", seed, n)
				}
			}
		}
	}
}
