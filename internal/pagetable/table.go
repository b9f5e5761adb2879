package pagetable

import "fmt"

// Virtual-address geometry: 4-level radix tree, 9 bits per level, 4 KiB
// pages — 48-bit canonical virtual addresses as on x86-64.
const (
	EntriesPerTable = 512
	indexBits       = 9
	pageShift       = 12
	vaBits          = pageShift + 4*indexBits // 48
)

// Level numbers follow Linux naming: 4=PGD, 3=PUD, 2=PMD, 1=PTE table.
const (
	LevelPGD = 4
	LevelPUD = 3
	LevelPMD = 2
	LevelPTE = 1
)

// VAddr is a virtual address.
type VAddr uint64

// MaxVAddr is the first non-canonical address.
const MaxVAddr = VAddr(1) << vaBits

// PageBase returns the address of the containing page.
func (v VAddr) PageBase() VAddr { return v &^ (VAddr(1)<<pageShift - 1) }

// PageNumber returns the virtual page number.
func (v VAddr) PageNumber() uint64 { return uint64(v) >> pageShift }

func (v VAddr) index(level int) int {
	shift := pageShift + (level-1)*indexBits
	return int(uint64(v)>>shift) & (EntriesPerTable - 1)
}

// node is one 4 KiB table at some level.
type node struct {
	id       uint64
	level    int
	entries  [EntriesPerTable]Entry
	children [EntriesPerTable]*node // nil at LevelPTE
}

// EntryAddr is the simulated physical address of a page-table entry; it is
// the unique key the PMSHR coalesces on ("the address of a PTE is an
// identifier of a page miss").
type EntryAddr uint64

// EntryRef identifies a single entry slot so hardware (the SMU's page-table
// updater) can read and write it directly, exactly as the real SMU does
// with the three entry addresses it receives from the MMU.
type EntryRef struct {
	node *node
	idx  int
}

// Valid reports whether the ref points at an entry.
func (r EntryRef) Valid() bool { return r.node != nil }

// Addr returns the simulated physical address of the entry.
func (r EntryRef) Addr() EntryAddr {
	if r.node == nil {
		return 0
	}
	return EntryAddr(r.node.id*EntriesPerTable*8 + uint64(r.idx)*8)
}

// Level returns the table level this entry lives in.
func (r EntryRef) Level() int { return r.node.level }

// Get reads the entry.
func (r EntryRef) Get() Entry { return r.node.entries[r.idx] }

// Set writes the entry.
func (r EntryRef) Set(e Entry) { r.node.entries[r.idx] = e }

// Table is one address space's page table.
type Table struct {
	root   *node
	nextID uint64
	// nodes counts allocated tables (for the mmap space-overhead metric,
	// Section IV-B).
	nodes uint64
}

// New returns an empty table.
func New() *Table {
	t := &Table{}
	t.root = t.newNode(LevelPGD)
	return t
}

func (t *Table) newNode(level int) *node {
	t.nextID++
	t.nodes++
	return &node{id: t.nextID, level: level}
}

// Nodes returns the number of allocated page-table pages (all levels).
func (t *Table) Nodes() uint64 { return t.nodes }

// Walk descends to the PTE for va without allocating. The returned refs for
// PUD, PMD and PTE are the three entry addresses the MMU hands to the SMU.
// ok is false if an intermediate table is missing.
func (t *Table) Walk(va VAddr) (pud, pmd, pte EntryRef, ok bool) {
	if va >= MaxVAddr {
		return EntryRef{}, EntryRef{}, EntryRef{}, false
	}
	n := t.root
	var refs [3]EntryRef // level 3, 2, 1 entries
	for level := LevelPGD; level >= LevelPTE; level-- {
		idx := va.index(level)
		if level != LevelPGD {
			refs[level-1] = EntryRef{n, idx}
		}
		if level == LevelPTE {
			return refs[2], refs[1], refs[0], true
		}
		child := n.children[idx]
		if child == nil {
			return EntryRef{}, EntryRef{}, EntryRef{}, false
		}
		n = child
	}
	panic("unreachable")
}

// Lookup returns the PTE entry for va, or ok=false if unmapped structure.
func (t *Table) Lookup(va VAddr) (Entry, bool) {
	_, _, pte, ok := t.Walk(va)
	if !ok {
		return 0, false
	}
	return pte.Get(), true
}

// Ensure descends to the PTE slot for va, allocating intermediate tables as
// needed (what fast-mmap population does), and returns the three refs.
func (t *Table) Ensure(va VAddr) (pud, pmd, pte EntryRef) {
	if va >= MaxVAddr {
		panic(fmt.Sprintf("pagetable: non-canonical address %#x", uint64(va)))
	}
	n := t.root
	var refs [3]EntryRef
	for level := LevelPGD; level >= LevelPTE; level-- {
		idx := va.index(level)
		if level != LevelPGD {
			refs[level-1] = EntryRef{n, idx}
		}
		if level == LevelPTE {
			return refs[2], refs[1], refs[0]
		}
		child := n.children[idx]
		if child == nil {
			child = t.newNode(level - 1)
			n.children[idx] = child
			// Upper-level entry becomes present (points to the new table).
			n.entries[idx] = n.entries[idx] | FlagPresent
		}
		n = child
	}
	panic("unreachable")
}

// Set installs a PTE for va, allocating structure as needed.
func (t *Table) Set(va VAddr, e Entry) {
	_, _, pte := t.Ensure(va)
	pte.Set(e)
}

// MarkUnsynced sets the LBA (needs-sync) bit on the PMD and PUD entries
// covering va. The SMU's page-table updater calls this after handling a
// miss so kpted can find the PTE cheaply ("marking this information in the
// next two levels up is sufficient").
func MarkUnsynced(pud, pmd EntryRef) {
	pud.Set(pud.Get() | FlagLBA)
	pmd.Set(pmd.Get() | FlagLBA)
}

// ScanStats reports the work done by one ScanUnsynced.
type ScanStats struct {
	PTEsVisited   uint64 // leaf entries actually inspected
	PTEsMatched   uint64 // resident+LBA entries handed to the visitor
	TablesSkipped uint64 // leaf tables skipped thanks to upper-level bits
	TablesScanned uint64
}

// ScanUnsynced visits, in VA order, every PTE of [lo, hi) in state
// resident/unsynced, using the upper-level sync marks to skip clean
// subtrees. It writes nothing: the visitor may clear the PTE's LBA bit,
// and kpted clears the marks with ClearSyncMarks once its scan is done.
func (t *Table) ScanUnsynced(lo, hi VAddr, visit func(va VAddr, pte EntryRef)) ScanStats {
	var st ScanStats
	t.leaves(lo, hi, &st, func(leaf *node, base VAddr, from, to int) {
		st.TablesScanned++
		for pi := from; pi <= to; pi++ {
			st.PTEsVisited++
			if leaf.entries[pi].State() == StateResidentUnsynced {
				st.PTEsMatched++
				visit(base|VAddr(pi)<<pageShift, EntryRef{leaf, pi})
			}
		}
	})
	return st
}

// ClearSyncMarks clears every PUD sync mark and the PMD marks below each
// marked PUD entry: kpted's last step, once ScanUnsynced has synced every
// PTE the marks cover. The scan and the clear run at one simulated
// instant, so no hardware install lands between them; the paper's kpted,
// racing real hardware, clears each mark before descending instead.
func (t *Table) ClearSyncMarks() {
	for _, pudNode := range t.root.children {
		if pudNode == nil {
			continue
		}
		for ui, pmdNode := range pudNode.children {
			if pmdNode == nil || pudNode.entries[ui]&FlagLBA == 0 {
				continue
			}
			pudNode.entries[ui] &^= FlagLBA
			for mi := range pmdNode.entries {
				pmdNode.entries[mi] &^= FlagLBA
			}
		}
	}
}

// Range visits, in VA order, every PTE slot of [lo, hi) whose leaf table
// exists, whatever its state: each va for which Walk succeeds. It is the
// one loop over a mapping's pages (munmap, msync, fork and the SMU
// barrier's address list).
func (t *Table) Range(lo, hi VAddr, visit func(va VAddr, pte EntryRef)) {
	t.leaves(lo, hi, nil, func(leaf *node, base VAddr, from, to int) {
		for pi := from; pi <= to; pi++ {
			visit(base|VAddr(pi)<<pageShift, EntryRef{leaf, pi})
		}
	})
}

// ScanAll visits every installed (non-zero) PTE of the table, in VA
// order. The page-cache audit, the leak audit, OOM victim selection and
// tests use it.
func (t *Table) ScanAll(visit func(va VAddr, pte EntryRef)) {
	t.Range(0, MaxVAddr, func(va VAddr, pte EntryRef) {
		if pte.Get() != 0 {
			visit(va, pte)
		}
	})
}

// leaves calls fn, in VA order, for each leaf table holding a slot of
// [lo, hi), with the table's base address and the first and last index
// of its slots in the range. With st set it skips each subtree whose PUD
// or PMD sync mark is clear, counting the leaf tables it skips.
func (t *Table) leaves(lo, hi VAddr, st *ScanStats, fn func(leaf *node, base VAddr, from, to int)) {
	if hi > MaxVAddr {
		hi = MaxVAddr
	}
	if lo < hi {
		descend(t.root, 0, lo, hi-1, st, fn)
	}
}

// descend is leaves below n, the table at base, for the range [lo, last].
// A nil fn counts each leaf table as skipped.
func descend(n *node, base, lo, last VAddr, st *ScanStats, fn func(leaf *node, base VAddr, from, to int)) {
	from, to := clip(base, lo, last, n.level)
	if n.level == LevelPTE {
		if fn == nil {
			st.TablesSkipped++
		} else {
			fn(n, base, from, to)
		}
		return
	}
	for i := from; i <= to; i++ {
		child := n.children[i]
		if child == nil {
			continue
		}
		cbase := base | VAddr(i)<<levelShift(n.level)
		if st != nil && fn != nil && n.level != LevelPGD && n.entries[i]&FlagLBA == 0 {
			descend(child, cbase, lo, last, st, nil) // a clean subtree
			continue
		}
		descend(child, cbase, lo, last, st, fn)
	}
}

// levelShift is the VA shift of a level's table index.
func levelShift(level int) uint { return uint(pageShift + (level-1)*indexBits) }

// clip returns the first and last index of the entries of the level table
// at base that hold an address of [lo, last]; the table must meet it.
func clip(base, lo, last VAddr, level int) (from, to int) {
	from, to = 0, EntriesPerTable-1
	if lo > base {
		from = lo.index(level)
	}
	if end := base + VAddr(1)<<(levelShift(level)+indexBits) - 1; last < end {
		to = last.index(level)
	}
	return from, to
}
