package fs

import (
	"testing"
	"unsafe"

	"hwdp/internal/mem"
)

// TestUnownedWriteSurvivesCreate writes a descriptor to a block no file
// owns, then creates a file that claims the block: the written descriptor
// keeps precedence over the file's generated page, while the file's other
// pages generate as usual. A written zero descriptor keeps it too.
func TestUnownedWriteSurvivesCreate(t *testing.T) {
	s := New(0, 0, 1, 100)
	gen := mem.NewGenerator(func(page int, buf []byte) { buf[0] = byte(page) })
	want := mem.Generated(gen, 77)
	if err := s.WriteContent(3, want); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteContent(5, mem.Content{}); err != nil {
		t.Fatal(err)
	}
	f, err := s.Create("f", 8, SeededInit(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.BlockContent(3); got != want {
		t.Fatalf("claimed written block reads %+v, want the written %+v", got, want)
	}
	if got := s.BlockContent(5); got != (mem.Content{}) {
		t.Fatalf("claimed block written with zeros reads %+v", got)
	}
	if got := s.BlockContent(4); got != mem.Generated(f.Generator(), 4) {
		t.Fatalf("unwritten block reads %+v, want page 4 of the file", got)
	}
}

// TestBlockContentPastTableReadsZeros reads blocks beyond every allocated
// and written block, and beyond the device: all are zeros.
func TestBlockContentPastTableReadsZeros(t *testing.T) {
	s := New(0, 0, 1, 100)
	if _, err := s.Create("f", 4, SeededInit(1)); err != nil {
		t.Fatal(err)
	}
	for _, lba := range []uint64{4, 50, 99, 100, 1 << 40} {
		if got := s.BlockContent(lba); got != (mem.Content{}) {
			t.Fatalf("lba %d reads %+v, want zeros", lba, got)
		}
	}
	if got := New(0, 0, 1, 100).BlockContent(0); got != (mem.Content{}) {
		t.Fatalf("empty file system reads %+v", got)
	}
}

// TestMovedBlockLeavesZeros moves a written and an unwritten page with
// Remap, and a page with a log-structured write: each old LBA reads zeros
// and each new LBA holds the page's content.
func TestMovedBlockLeavesZeros(t *testing.T) {
	s := New(0, 0, 1, 100)
	f, err := s.Create("f", 4, SeededInit(1))
	if err != nil {
		t.Fatal(err)
	}
	snap := mem.Snapshot(new([PageBytes]byte))
	old1, _ := s.Block(f, 1)
	if err := s.WriteContent(old1.LBA, snap); err != nil {
		t.Fatal(err)
	}
	old2, _ := s.Block(f, 2)
	for page, want := range map[int]mem.Content{1: snap, 2: mem.Generated(f.Generator(), 2)} {
		old, _ := s.Block(f, page)
		nb, err := s.Remap(f, page)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.BlockContent(old.LBA); got != (mem.Content{}) {
			t.Fatalf("page %d: old lba %d reads %+v after Remap", page, old.LBA, got)
		}
		if got := s.BlockContent(nb.LBA); got != want {
			t.Fatalf("page %d: new lba %d reads %+v, want %+v", page, nb.LBA, got, want)
		}
	}
	if old2.LBA == old1.LBA {
		t.Fatal("pages share a block")
	}

	s.RemapOnWrite = true
	old3, _ := s.Block(f, 3)
	if err := s.WriteContent(old3.LBA, snap); err != nil {
		t.Fatal(err)
	}
	new3, _ := s.Block(f, 3)
	if new3.LBA == old3.LBA {
		t.Fatal("log-structured write did not move the page")
	}
	if got := s.BlockContent(old3.LBA); got != (mem.Content{}) {
		t.Fatalf("old lba %d reads %+v after a log-structured write", old3.LBA, got)
	}
	if got := s.BlockContent(new3.LBA); got != snap {
		t.Fatalf("new lba %d reads %+v, want the written snapshot", new3.LBA, got)
	}
}

// TestCreateAllocations pins that Create sizes the block table in one
// step: creating a 16,384-page file on a fresh file system makes the same
// small number of allocations as a 16-page one (the file, its page map,
// its generator, the table and the name-map entry), none per page.
func TestCreateAllocations(t *testing.T) {
	init := SeededInit(1)
	allocs := func(pages int) float64 {
		return testing.AllocsPerRun(20, func() {
			s := New(0, 0, 1, 1<<20)
			if _, err := s.Create("f", pages, init); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(16384)
	if large != small || large > 8 {
		t.Fatalf("Create makes %.1f allocations for 16 pages and %.1f for 16,384, want the same small constant", small, large)
	}
}

// TestBlockEntrySize pins the 40 bytes per allocated block that the
// package doc states.
func TestBlockEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(block{}); n != 40 {
		t.Fatalf("block table entry is %d bytes; update the package doc", n)
	}
}
