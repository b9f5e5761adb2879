// Package fs is the storage-layout substrate: a minimal extent-style file
// system that maps file pages to logical block addresses on one NVMe
// namespace. It is the component that "bridges the semantic gap between CPU
// and kernel" — the OS consults it to LBA-augment PTEs (Section IV-B), and
// its block-remap hook models copy-on-write/log-structured file systems
// that must patch LBA-augmented PTEs when a file's block mapping changes.
//
// File contents are deterministic: each file carries an initializer that
// generates any page's bytes on demand, and explicit writes override pages.
// The file system keeps one 40-byte entry per allocated block (its owner
// file and page, and its current descriptor) in a table indexed by LBA,
// and page bytes only for blocks written from materialized frames, so a
// terabyte-scale layout costs host memory per allocated block, not per
// byte.
//
// A block's contents are a mem.Content descriptor: the file's initializer
// plus the page index, or the descriptor last written to the block, or
// zeros for a trimmed block. The device's DMA moves descriptors, not bytes
// (ReadDMA, WriteDMA); bytes are generated only when a frame or ReadBlock
// materializes them. The file system never mutates a byte snapshot it has
// stored, so a descriptor handed out keeps the block's contents as of that
// moment, across later writes and remaps of the block.
package fs

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"hwdp/internal/mem"
	"hwdp/internal/pagetable"
)

// PageBytes is the file page size (one 4 KiB block per page: the simulated
// namespaces use 4 KiB logical blocks, so a page is exactly one block).
const PageBytes = mem.PageSize

// Initializer produces the pristine content of file page `page` into buf
// (len PageBytes). It must be a pure function of page: frames hold
// (initializer, page) descriptors and may generate the bytes much later.
// A file's initializer may also be handed page words beyond its length: a
// record store packs (key, version) into the word and writes descriptors
// of them, so its initializer generates every version of a record.
type Initializer func(page int, buf []byte)

// SeededInit returns an initializer generating pseudorandom page contents
// from a seed; used by FIO-style raw files.
func SeededInit(seed uint64) Initializer {
	return func(page int, buf []byte) {
		s := seed ^ (uint64(page)+1)*0x9e3779b97f4a7c15
		for i := 0; i < len(buf); i += 8 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			v := s
			for j := 0; j < 8 && i+j < len(buf); j++ {
				buf[i+j] = byte(v)
				v >>= 8
			}
		}
	}
}

// File is one file: a size and a per-page block mapping.
type File struct {
	Name  string
	pages []uint64       // page index -> LBA
	gen   *mem.Generator // the initializer; nil: all zeros
	// Marked is set when the file is mapped with fast-mmap so that block
	// remaps are propagated to LBA-augmented PTEs (Section IV-B: "when a
	// file is mapped using LBA augmentation, the file is marked").
	Marked bool
}

// Pages returns the file length in pages.
func (f *File) Pages() int { return len(f.pages) }

// Generator returns the file's initializer as the Generator its block
// descriptors carry (nil for a zero-filled file).
func (f *File) Generator() *mem.Generator { return f.gen }

// ErrNoSpace is returned when the namespace has no free blocks.
var ErrNoSpace = errors.New("fs: out of space")

// ErrBadPage is returned for out-of-range page indices.
var ErrBadPage = errors.New("fs: page out of range")

// block is one entry of the LBA-indexed block table: the file page that
// owns the block (file nil: none) and the block's current contents.
type block struct {
	c    mem.Content
	file *File
	page int32
	// written marks c as written to the block rather than generated from
	// the owner's initializer; a written descriptor survives a later
	// Create or Remap that claims the block.
	written bool
}

// RemapFunc observes block-mapping changes of marked files so the kernel
// can patch non-present LBA-augmented PTEs.
type RemapFunc func(f *File, page int, newBlock pagetable.BlockAddr)

// FS is one file system on one namespace of one device.
type FS struct {
	sid     uint8
	devID   uint8
	nsid    uint32
	blocks  uint64
	nextLBA uint64

	// RemapOnWrite turns the file system log-structured: every block
	// write goes to a freshly allocated location and the old block is
	// invalidated — the CoW/LFS behavior (Btrfs/ZFS-style) whose block
	// remaps must be reflected into LBA-augmented PTEs (Section IV-B).
	// Log cleaning is not modeled; the device is sized for the run.
	RemapOnWrite bool

	files   map[string]*File
	tab     []block // by LBA; LBAs past its end read as zeros
	onRemap RemapFunc

	writes uint64
	remaps uint64
}

// New formats a file system over a namespace of the given capacity (in
// blocks) living at <sid, devID> / nsid.
func New(sid, devID uint8, nsid uint32, blocks uint64) *FS {
	return &FS{
		sid: sid, devID: devID, nsid: nsid, blocks: blocks,
		files: make(map[string]*File),
	}
}

// NSID returns the namespace the file system lives on.
func (s *FS) NSID() uint32 { return s.nsid }

// OnRemap installs the remap observer (at most one; the kernel).
func (s *FS) OnRemap(fn RemapFunc) { s.onRemap = fn }

// FreeBlocks returns the number of unallocated blocks.
func (s *FS) FreeBlocks() uint64 { return s.blocks - s.nextLBA }

func (s *FS) allocBlock() (uint64, error) {
	if s.nextLBA >= s.blocks {
		return 0, ErrNoSpace
	}
	lba := s.nextLBA
	s.nextLBA++
	return lba, nil
}

// entry returns the table entry of lba, growing the table to cover it.
//
//hwdp:coldpath Create sizes the table for its blocks in one step; only Remap, a log-structured write and a write past every allocated block get here, each growing the table by amortized doubling
func (s *FS) entry(lba uint64) *block {
	if lba >= uint64(len(s.tab)) {
		s.tab = slices.Grow(s.tab, int(lba)+1-len(s.tab))[:lba+1]
	}
	return &s.tab[lba]
}

// claim makes the freshly allocated block lba hold page of f. A descriptor
// written to the block before any file owned it stays; otherwise the block
// generates the page.
func (s *FS) claim(lba uint64, f *File, page int) {
	b := &s.tab[lba]
	b.file, b.page = f, int32(page)
	if !b.written {
		b.c = mem.Generated(f.gen, page)
	}
}

// Create allocates a file of the given page count. init may be nil (zero
// content).
func (s *FS) Create(name string, pages int, init Initializer) (*File, error) {
	if _, dup := s.files[name]; dup {
		return nil, fmt.Errorf("fs: file %q exists", name)
	}
	if pages < 0 || pages > math.MaxInt32 {
		return nil, fmt.Errorf("%w: %d pages", ErrBadPage, pages)
	}
	if uint64(pages) > s.FreeBlocks() {
		return nil, ErrNoSpace
	}
	f := &File{Name: name, pages: make([]uint64, pages), gen: mem.NewGenerator(init)}
	if end := s.nextLBA + uint64(pages); end > uint64(len(s.tab)) {
		s.tab = slices.Grow(s.tab, int(end)-len(s.tab))[:end]
	}
	for i := range f.pages {
		lba := s.nextLBA
		s.nextLBA++
		f.pages[i] = lba
		s.claim(lba, f, i)
	}
	s.files[name] = f
	return f, nil
}

// Open returns an existing file.
func (s *FS) Open(name string) (*File, error) {
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("fs: no such file %q", name)
	}
	return f, nil
}

// Block returns the block address of a file page — what the kernel records
// into an LBA-augmented PTE.
func (s *FS) Block(f *File, page int) (pagetable.BlockAddr, error) {
	if page < 0 || page >= len(f.pages) {
		//hwdp:ignore hotalloc error construction on the out-of-range return only; the kernel asks only for pages inside a mapped file
		return pagetable.BlockAddr{}, fmt.Errorf("%w: %s[%d]", ErrBadPage, f.Name, page)
	}
	return pagetable.BlockAddr{SID: s.sid, DeviceID: s.devID, LBA: f.pages[page]}, nil
}

// Remap moves a file page to a freshly allocated block (a CoW or
// log-structured update) and notifies the remap observer if the file is
// marked. It returns the new block address.
func (s *FS) Remap(f *File, page int) (pagetable.BlockAddr, error) {
	if page < 0 || page >= len(f.pages) {
		return pagetable.BlockAddr{}, fmt.Errorf("%w: %s[%d]", ErrBadPage, f.Name, page)
	}
	newLBA, err := s.allocBlock()
	if err != nil {
		return pagetable.BlockAddr{}, err
	}
	nb := s.entry(newLBA)
	ob := &s.tab[f.pages[page]]
	// Preserve current content across the move. A block never written
	// needs nothing: the new block generates the same page.
	if ob.written {
		nb.c, nb.written = ob.c, true
	}
	*ob = block{}
	f.pages[page] = newLBA
	s.claim(newLBA, f, page)
	s.remaps++
	b := pagetable.BlockAddr{SID: s.sid, DeviceID: s.devID, LBA: newLBA}
	if f.Marked && s.onRemap != nil {
		s.onRemap(f, page, b)
	}
	return b, nil
}

// Remaps returns the cumulative remap count.
func (s *FS) Remaps() uint64 { return s.remaps }

// BlockContent returns the descriptor of the block at lba's current
// contents — the device's DMA source for reads. Unallocated blocks read
// as zeros, like a trimmed SSD.
//
//hwdp:hotpath
func (s *FS) BlockContent(lba uint64) mem.Content {
	if lba >= uint64(len(s.tab)) {
		return mem.Content{}
	}
	return s.tab[lba].c
}

// ReadBlock fills buf (len PageBytes) with the content of the block at lba.
func (s *FS) ReadBlock(lba uint64, buf []byte) error {
	s.BlockContent(lba).Materialize(buf)
	return nil
}

// WriteBlock stores a copy of data (len PageBytes) at lba; see
// WriteContent.
func (s *FS) WriteBlock(lba uint64, data []byte) error {
	cp := new([PageBytes]byte)
	copy(cp[:], data)
	return s.WriteContent(lba, mem.Snapshot(cp))
}

// WriteContent stores the descriptor c at lba — the device's DMA sink for
// writes (page writeback). In RemapOnWrite mode the contents land at a
// newly allocated block instead, the file's mapping moves, and marked
// files get their LBA-augmented PTEs patched via the remap observer.
func (s *FS) WriteContent(lba uint64, c mem.Content) error {
	if lba >= s.blocks {
		return fmt.Errorf("fs: write beyond device: lba %d", lba)
	}
	s.writes++
	if s.RemapOnWrite && lba < uint64(len(s.tab)) && s.tab[lba].file != nil {
		newLBA, err := s.allocBlock()
		if err != nil {
			return err
		}
		nb := s.entry(newLBA)
		ob := &s.tab[lba]
		f, page := ob.file, int(ob.page)
		*ob = block{}
		*nb = block{c: c, file: f, page: int32(page), written: true}
		f.pages[page] = newLBA
		s.remaps++
		if f.Marked && s.onRemap != nil {
			s.onRemap(f, page, pagetable.BlockAddr{SID: s.sid, DeviceID: s.devID, LBA: newLBA})
		}
		return nil
	}
	// In place; in RemapOnWrite mode only a write to an unowned (trimmed)
	// block gets here.
	b := s.entry(lba)
	b.c, b.written = c, true
	return nil
}

// ReadDMA is the device's read DMA into frame f: the frame takes the
// descriptor of the block at lba.
func (s *FS) ReadDMA(m *mem.Memory, f mem.FrameID, lba uint64) error {
	return m.SetContent(f, s.BlockContent(lba))
}

// WriteDMA is the device's write DMA from frame f to the block at lba. A
// frame whose contents were never materialized passes its descriptor on;
// only a materialized frame's bytes are copied.
func (s *FS) WriteDMA(m *mem.Memory, f mem.FrameID, lba uint64) error {
	if c, ok := m.Descriptor(f); ok {
		return s.WriteContent(lba, c)
	}
	data, err := m.Data(f)
	if err != nil {
		return err
	}
	return s.WriteBlock(lba, data)
}

// Writes returns the cumulative block-write count.
func (s *FS) Writes() uint64 { return s.writes }
