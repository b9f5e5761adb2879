// Package mem models the machine's physical memory: a page-frame allocator
// plus lazily generated frame contents.
//
// No simulated time depends on page bytes, so a frame's contents are kept
// as cheaply as possible. Each allocated frame is in one of three states:
//
//   - empty: it holds no contents yet and reads as zeros;
//   - pending: it holds an immutable Content descriptor. A device read
//     DMA or a whole-page store leaves a frame here: it copies a
//     descriptor, not 4 KiB of bytes;
//   - materialized: it holds a real 4 KiB buffer, generated from the
//     descriptor by the first Data call.
//
// A descriptor is one of:
//
//   - a Generator plus a page word: a file's initializer and a page index,
//     or a record store's (key, version) pair packed into that word. The
//     Generator pointer is the descriptor's comparable identity, so a
//     reader can check where a page came from (GeneratedBy) without
//     generating its bytes;
//   - an immutable byte snapshot owned by the file system;
//   - zeros.
//
// Bytes are generated only when something reads them (a record that fails
// its descriptor check, the anon-heap example, invariant checks). A
// descriptor is a snapshot: it keeps the bytes its source had when it was
// taken, because generators are pure and the file system never mutates a
// byte slice it has handed out. Free drops both the descriptor and the
// buffer.
package mem

import (
	"errors"
	"fmt"
)

// PageSize is the base page size in bytes (4 KiB, matching the paper's
// experiments; NVMe reads of up to 8 KiB work without a PRP list).
const PageSize = 4096

// FrameID identifies a physical page frame (the PFN).
type FrameID uint64

// NoFrame is the sentinel for "no frame".
const NoFrame FrameID = ^FrameID(0)

// ErrOutOfMemory is returned when no free frame exists.
var ErrOutOfMemory = errors.New("mem: out of physical memory")

// ErrBadFrame is returned for operations on invalid or unallocated frames.
var ErrBadFrame = errors.New("mem: invalid frame")

// Generator produces pages from a page word. Its address is its identity:
// GeneratedBy tells the descriptors it made from all others.
type Generator struct {
	fn func(page int, buf []byte)
}

// NewGenerator wraps fn, which must be a pure function of its page word.
// A nil fn gives a nil Generator, which generates zeros.
func NewGenerator(fn func(page int, buf []byte)) *Generator {
	if fn == nil {
		return nil
	}
	return &Generator{fn: fn}
}

// Content is an immutable description of one page's bytes. The zero value
// describes a page of zeros.
type Content struct {
	gen   *Generator
	page  int
	bytes *[PageSize]byte
}

// Generated describes the page that gen produces for the page word page;
// a nil gen means zeros.
func Generated(gen *Generator, page int) Content {
	return Content{gen: gen, page: page}
}

// GeneratedBy returns the page word of a descriptor generated by g. ok is
// false for a snapshot, for zeros and for any other generator's page.
//
//hwdp:hotpath
func (c Content) GeneratedBy(g *Generator) (page int, ok bool) {
	if g == nil || c.gen != g {
		return 0, false
	}
	return c.page, true
}

// Snapshot describes the page held in b. The caller hands b over: nothing
// may write to it afterwards.
func Snapshot(b *[PageSize]byte) Content { return Content{bytes: b} }

// Materialize writes the described bytes into buf (len PageSize). It is
// the one place a descriptor turns into bytes.
func (c Content) Materialize(buf []byte) {
	switch {
	case c.bytes != nil:
		copy(buf, c.bytes[:])
	case c.gen != nil:
		c.gen.fn(c.page, buf)
	default:
		clear(buf)
	}
}

// Frame content states.
const (
	stateEmpty uint8 = iota
	statePending
	stateMaterialized
)

// slot is one frame's contents.
type slot struct {
	content Content         // the descriptor while pending
	buf     *[PageSize]byte // the buffer once materialized
	state   uint8
}

// Memory is the physical memory of one simulated machine.
type Memory struct {
	frames    uint64
	freeList  []FrameID
	allocated []bool
	slots     []slot

	allocs uint64
	frees  uint64
}

// New creates a memory of the given size in bytes (rounded down to whole
// frames). It panics on a size smaller than one page, which is always a
// configuration bug.
func New(bytes uint64) *Memory {
	n := bytes / PageSize
	if n == 0 {
		panic("mem: memory smaller than one page")
	}
	m := &Memory{
		frames:    n,
		freeList:  make([]FrameID, 0, n),
		allocated: make([]bool, n),
		slots:     make([]slot, n),
	}
	// Push in reverse so low frames are handed out first (deterministic
	// and matches how a fresh kernel consumes its memory map).
	for i := int64(n) - 1; i >= 0; i-- {
		m.freeList = append(m.freeList, FrameID(i))
	}
	return m
}

// Frames returns the total number of page frames.
func (m *Memory) Frames() uint64 { return m.frames }

// FreeFrames returns the number of currently free frames.
func (m *Memory) FreeFrames() uint64 { return uint64(len(m.freeList)) }

// Allocs returns the cumulative number of successful allocations.
func (m *Memory) Allocs() uint64 { return m.allocs }

// Frees returns the cumulative number of frees.
func (m *Memory) Frees() uint64 { return m.frees }

// Alloc takes a free frame. It returns ErrOutOfMemory when memory is
// exhausted, which the kernel turns into page replacement.
func (m *Memory) Alloc() (FrameID, error) {
	if len(m.freeList) == 0 {
		return NoFrame, ErrOutOfMemory
	}
	f := m.freeList[len(m.freeList)-1]
	m.freeList = m.freeList[:len(m.freeList)-1]
	m.allocated[f] = true
	m.allocs++
	return f, nil
}

// AllocN takes up to n free frames, returning however many were available.
// The kernel uses it to refill the SMU free-page queue in batch.
func (m *Memory) AllocN(n int) []FrameID {
	if n > len(m.freeList) {
		n = len(m.freeList)
	}
	out := make([]FrameID, 0, n)
	for i := 0; i < n; i++ {
		f, err := m.Alloc()
		if err != nil {
			break
		}
		out = append(out, f)
	}
	return out
}

// Free returns a frame to the allocator and drops its contents.
func (m *Memory) Free(f FrameID) error {
	if !m.Allocated(f) {
		return badFrame("free of", f)
	}
	m.allocated[f] = false
	m.slots[f] = slot{}
	//hwdp:ignore hotalloc freeList is made with capacity for every frame, so append never grows it
	m.freeList = append(m.freeList, f)
	m.frees++
	return nil
}

// Allocated reports whether the frame is currently allocated.
func (m *Memory) Allocated(f FrameID) bool {
	return uint64(f) < m.frames && m.allocated[f]
}

// SetContent replaces the frame's contents with the descriptor c, dropping
// any materialized buffer. It is the device's read DMA and a whole-page
// store: no bytes move.
//
//hwdp:hotpath
func (m *Memory) SetContent(f FrameID, c Content) error {
	if !m.Allocated(f) {
		return badFrame("content of", f)
	}
	m.slots[f] = slot{content: c, state: statePending}
	return nil
}

// Descriptor returns the frame's contents as a descriptor when they are
// not materialized, so a device write DMA can pass them on without
// copying bytes. A frame that held no contents yet holds zeros from here
// on. ok is false for a materialized frame, whose bytes the caller copies
// from Data, and for an unallocated one.
//
//hwdp:hotpath
func (m *Memory) Descriptor(f FrameID) (c Content, ok bool) {
	if !m.Allocated(f) {
		return Content{}, false
	}
	s := &m.slots[f]
	if s.state == stateMaterialized {
		return Content{}, false
	}
	s.state = statePending
	return s.content, true
}

// Data returns the frame's 4 KiB buffer, generating it from the pending
// descriptor (or zero-filled) on first access. The frame must be
// allocated.
func (m *Memory) Data(f FrameID) ([]byte, error) {
	if !m.Allocated(f) {
		return nil, badFrame("data of", f)
	}
	s := &m.slots[f]
	if s.buf == nil {
		s.buf = new([PageSize]byte)
	}
	if s.state == statePending {
		s.content.Materialize(s.buf[:])
		s.content = Content{}
	}
	s.state = stateMaterialized
	return s.buf[:], nil
}

// badFrame formats an operation on an invalid or unallocated frame.
//
//hwdp:coldpath failure diagnostics for an invalid frame
func badFrame(op string, f FrameID) error {
	return fmt.Errorf("%w: %s %d", ErrBadFrame, op, f)
}

// ResidentBuffers returns how many frames hold contents, pending or
// materialized (a host-memory usage metric, not a simulation quantity).
func (m *Memory) ResidentBuffers() int {
	n := 0
	for i := range m.slots {
		if m.slots[i].state != stateEmpty {
			n++
		}
	}
	return n
}
