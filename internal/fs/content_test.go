package fs

import (
	"bytes"
	"testing"

	"hwdp/internal/mem"
)

// dmaRig is one file system, one seeded file and a small memory.
type dmaRig struct {
	s *FS
	f *File
	m *mem.Memory
}

func newDMARig(t *testing.T, remapOnWrite bool) *dmaRig {
	t.Helper()
	s := New(0, 0, 1, 1000)
	s.RemapOnWrite = remapOnWrite
	f, err := s.Create("f", 4, SeededInit(11))
	if err != nil {
		t.Fatal(err)
	}
	return &dmaRig{s: s, f: f, m: mem.New(8 * mem.PageSize)}
}

// load read-DMAs file page into a fresh frame.
func (r *dmaRig) load(t *testing.T, page int) mem.FrameID {
	t.Helper()
	frame, err := r.m.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := r.s.Block(r.f, page)
	if err := r.s.ReadDMA(r.m, frame, b.LBA); err != nil {
		t.Fatal(err)
	}
	return frame
}

func (r *dmaRig) pristine(page int) []byte {
	buf := make([]byte, PageBytes)
	mem.Generated(r.f.gen, page).Materialize(buf)
	return buf
}

func (r *dmaRig) data(t *testing.T, frame mem.FrameID) []byte {
	t.Helper()
	b, err := r.m.Data(frame)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (r *dmaRig) block(t *testing.T, page int) []byte {
	t.Helper()
	b, _ := r.s.Block(r.f, page)
	buf := make([]byte, PageBytes)
	if err := r.s.ReadBlock(b.LBA, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// A frame DMA'd from block B keeps B's bytes as of the DMA, whatever
// happens to B afterwards: an in-place write, a remap, a log-structured
// write.
func TestDMASnapshotSurvivesBlockChanges(t *testing.T) {
	written := bytes.Repeat([]byte{0x5A}, PageBytes)
	for _, tc := range []struct {
		name   string
		lfs    bool
		change func(t *testing.T, r *dmaRig)
	}{
		{"WriteBlock", false, func(t *testing.T, r *dmaRig) {
			b, _ := r.s.Block(r.f, 1)
			if err := r.s.WriteBlock(b.LBA, written); err != nil {
				t.Fatal(err)
			}
		}},
		{"Remap", false, func(t *testing.T, r *dmaRig) {
			if _, err := r.s.Remap(r.f, 1); err != nil {
				t.Fatal(err)
			}
			b, _ := r.s.Block(r.f, 1)
			if err := r.s.WriteBlock(b.LBA, written); err != nil {
				t.Fatal(err)
			}
		}},
		{"RemapOnWrite", true, func(t *testing.T, r *dmaRig) {
			b, _ := r.s.Block(r.f, 1)
			if err := r.s.WriteBlock(b.LBA, written); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newDMARig(t, tc.lfs)
			pending := r.load(t, 1)      // never materialized before the change
			materialized := r.load(t, 1) // materialized before the change
			_ = r.data(t, materialized)
			tc.change(t, r)
			if !bytes.Equal(r.block(t, 1), written) {
				t.Fatal("block does not read the new bytes")
			}
			for _, frame := range []mem.FrameID{pending, materialized} {
				if !bytes.Equal(r.data(t, frame), r.pristine(1)) {
					t.Fatalf("frame %d lost the bytes it was DMA'd", frame)
				}
			}
		})
	}
}

// A frame DMA'd from a written block keeps the written bytes after the
// block is written again: fs never mutates a snapshot it handed out.
func TestDMASnapshotOfWrittenBlock(t *testing.T) {
	r := newDMARig(t, false)
	b, _ := r.s.Block(r.f, 2)
	first := bytes.Repeat([]byte{1}, PageBytes)
	_ = r.s.WriteBlock(b.LBA, first)
	frame := r.load(t, 2)
	_ = r.s.WriteBlock(b.LBA, bytes.Repeat([]byte{2}, PageBytes))
	if !bytes.Equal(r.data(t, frame), first) {
		t.Fatal("frame sees a later write to its source block")
	}
}

// A dirty frame whose contents were never materialized is written back as
// its descriptor; re-reading the block returns the initializer's bytes, in
// place and on a log-structured file system.
func TestWriteDMAOfPendingFrame(t *testing.T) {
	for _, lfs := range []bool{false, true} {
		r := newDMARig(t, lfs)
		frame := r.load(t, 3)
		b, _ := r.s.Block(r.f, 3)
		if err := r.s.WriteDMA(r.m, frame, b.LBA); err != nil {
			t.Fatal(err)
		}
		if err := r.m.Free(frame); err != nil {
			t.Fatal(err)
		}
		if r.s.Writes() != 1 {
			t.Fatalf("lfs=%v: writes = %d", lfs, r.s.Writes())
		}
		again := r.load(t, 3)
		if !bytes.Equal(r.data(t, again), r.pristine(3)) {
			t.Fatalf("lfs=%v: written-back pending frame read back wrong", lfs)
		}
	}
}

// A materialized frame's write DMA copies its bytes: later stores to the
// frame do not reach the block.
func TestWriteDMAOfMaterializedFrameCopies(t *testing.T) {
	r := newDMARig(t, false)
	frame := r.load(t, 0)
	buf := r.data(t, frame)
	buf[0] ^= 0xFF
	want := append([]byte(nil), buf...)
	b, _ := r.s.Block(r.f, 0)
	if err := r.s.WriteDMA(r.m, frame, b.LBA); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xFF
	if !bytes.Equal(r.block(t, 0), want) {
		t.Fatal("block does not hold the bytes as of the write DMA")
	}
}

// TestReadDMAAllocationFree pins the steady-state read DMA — allocate a
// frame, hand it the block's descriptor, free it — at zero allocations.
func TestReadDMAAllocationFree(t *testing.T) {
	r := newDMARig(t, false)
	b, _ := r.s.Block(r.f, 1)
	_ = r.s.WriteBlock(b.LBA, make([]byte, PageBytes)) // an overridden block
	lbas := []uint64{b.LBA, b.LBA + 1, 999}            // written, generated, trimmed
	i := 0
	got := testing.AllocsPerRun(500, func() {
		frame, err := r.m.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.s.ReadDMA(r.m, frame, lbas[i%len(lbas)]); err != nil {
			t.Fatal(err)
		}
		i++
		if err := r.m.Free(frame); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("read DMA allocates %.1f objects/op, want 0", got)
	}
}
