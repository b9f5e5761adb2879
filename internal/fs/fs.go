// Package fs is the storage-layout substrate: a minimal extent-style file
// system that maps file pages to logical block addresses on one NVMe
// namespace. It is the component that "bridges the semantic gap between CPU
// and kernel" — the OS consults it to LBA-augment PTEs (Section IV-B), and
// its block-remap hook models copy-on-write/log-structured file systems
// that must patch LBA-augmented PTEs when a file's block mapping changes.
//
// File contents are deterministic: each file carries an initializer that
// generates any page's bytes on demand, and explicit writes override pages.
// This lets the simulation address terabyte-scale layouts while only paying
// host memory for blocks actually written.
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

type blockRef struct {
	file *File
	page int
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

	files     map[string]*File
	byLBA     map[uint64]blockRef
	overrides map[uint64]mem.Content
	onRemap   RemapFunc

	writes uint64
	remaps uint64
}

// New formats a file system over a namespace of the given capacity (in
// blocks) living at <sid, devID> / nsid.
func New(sid, devID uint8, nsid uint32, blocks uint64) *FS {
	return &FS{
		sid: sid, devID: devID, nsid: nsid, blocks: blocks,
		files:     make(map[string]*File),
		byLBA:     make(map[uint64]blockRef),
		overrides: make(map[uint64]mem.Content),
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

// Create allocates a file of the given page count. init may be nil (zero
// content).
func (s *FS) Create(name string, pages int, init Initializer) (*File, error) {
	if _, dup := s.files[name]; dup {
		return nil, fmt.Errorf("fs: file %q exists", name)
	}
	f := &File{Name: name, pages: make([]uint64, pages), gen: mem.NewGenerator(init)}
	for i := 0; i < pages; i++ {
		lba, err := s.allocBlock()
		if err != nil {
			return nil, err
		}
		f.pages[i] = lba
		s.byLBA[lba] = blockRef{f, i}
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
	old := f.pages[page]
	// Preserve current content across the move. A block never written
	// needs nothing: the new block generates the same page.
	if c, ok := s.overrides[old]; ok {
		s.overrides[newLBA] = c
		delete(s.overrides, old)
	}
	delete(s.byLBA, old)
	f.pages[page] = newLBA
	s.byLBA[newLBA] = blockRef{f, page}
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
	if c, ok := s.overrides[lba]; ok {
		return c
	}
	if ref, ok := s.byLBA[lba]; ok {
		return mem.Generated(ref.file.gen, ref.page)
	}
	return mem.Content{}
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
	if s.RemapOnWrite {
		if ref, ok := s.byLBA[lba]; ok {
			newLBA, err := s.allocBlock()
			if err != nil {
				return err
			}
			delete(s.overrides, lba)
			delete(s.byLBA, lba)
			s.overrides[newLBA] = c
			ref.file.pages[ref.page] = newLBA
			s.byLBA[newLBA] = ref
			s.remaps++
			if ref.file.Marked && s.onRemap != nil {
				s.onRemap(ref.file, ref.page,
					pagetable.BlockAddr{SID: s.sid, DeviceID: s.devID, LBA: newLBA})
			}
			return nil
		}
		// Write to an unmapped block (trimmed): store in place.
	}
	s.overrides[lba] = c
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
