package nvme

import (
	"errors"
	"fmt"
)

// ErrQueueFull is returned when the submission queue cannot accept another
// entry.
var ErrQueueFull = errors.New("nvme: submission queue full")

// Namespace is a storage volume organized into logical blocks, typically
// managed by a single file system (paper, Section III-C footnote).
type Namespace struct {
	ID     uint32
	Blocks uint64 // capacity in logical blocks
}

// QueuePair is one NVMe I/O submission/completion queue pair. The paper's
// OS allocates a dedicated, isolated pair for the SMU, separate from the
// OS-managed pairs; both kinds are instances of this type.
//
// The host side writes commands at the SQ tail and rings the SQ tail
// doorbell; the device pops from the SQ head, and posts completions at the
// CQ tail with the current phase tag. The host consumes completions by
// comparing phase tags, then rings the CQ head doorbell.
type QueuePair struct {
	ID    uint16
	depth int

	sq     []Command
	sqTail int // host-owned
	sqHead int // device-owned

	cq      []Completion
	cqTail  int  // device-owned
	cqHead  int  // host-owned
	phase   bool // device's current phase tag
	hostPhs bool // phase the host expects next

	// Interrupts disabled is how the SMU's queue pair runs (completions are
	// detected by snooping the CQ memory write instead).
	InterruptsEnabled bool

	submitted uint64
	completed uint64
}

// NewQueuePair creates a queue pair with the given entry count (both
// queues). Depth must be at least 2 (one slot is lost to the full/empty
// distinction, as in a real ring).
func NewQueuePair(id uint16, depth int) *QueuePair {
	if depth < 2 {
		panic("nvme: queue depth must be >= 2")
	}
	return &QueuePair{
		ID:                id,
		depth:             depth,
		sq:                make([]Command, depth),
		cq:                make([]Completion, depth),
		phase:             true,
		hostPhs:           true,
		InterruptsEnabled: true,
	}
}

// Depth returns the configured queue depth.
func (q *QueuePair) Depth() int { return q.depth }

// SQFull reports whether the submission ring has no free slot.
func (q *QueuePair) SQFull() bool { return (q.sqTail+1)%q.depth == q.sqHead }

// SQOutstanding returns the number of commands submitted but not yet popped
// by the device.
func (q *QueuePair) SQOutstanding() int {
	return (q.sqTail - q.sqHead + q.depth) % q.depth
}

// Submit writes a command at the SQ tail and advances it — the host's
// "single 64 bytes cacheline write to memory". The caller must then ring
// the SQ doorbell on the controller for the device to notice.
func (q *QueuePair) Submit(c Command) error {
	if q.SQFull() {
		//hwdp:ignore hotalloc error construction on the queue-full return only; the SMU sizes its isolated queue to PMSHR depth and panics on this error
		return fmt.Errorf("%w: qid %d", ErrQueueFull, q.ID)
	}
	q.sq[q.sqTail] = c
	q.sqTail = (q.sqTail + 1) % q.depth
	q.submitted++
	return nil
}

// PopSQ removes the command at the SQ head (device side). ok is false when
// the queue is empty.
func (q *QueuePair) PopSQ() (Command, bool) {
	if q.sqHead == q.sqTail {
		return Command{}, false
	}
	c := q.sq[q.sqHead]
	q.sqHead = (q.sqHead + 1) % q.depth
	return c, true
}

// PostCompletion appends a completion entry with the device's phase tag
// (device side). The device flips its phase each time the CQ wraps.
func (q *QueuePair) PostCompletion(cp Completion) {
	cp.SQID = q.ID
	cp.SQHead = uint16(q.sqHead)
	cp.Phase = q.phase
	q.cq[q.cqTail] = cp
	q.cqTail = (q.cqTail + 1) % q.depth
	if q.cqTail == 0 {
		q.phase = !q.phase
	}
	q.completed++
}

// PollCQ returns the completion at the CQ head if its phase tag matches the
// host's expected phase (host side). It does not consume the entry.
func (q *QueuePair) PollCQ() (Completion, bool) {
	cp := q.cq[q.cqHead]
	if cp.Phase != q.hostPhs {
		return Completion{}, false
	}
	return cp, true
}

// ConsumeCQ advances the CQ head past one polled entry — the paper's
// completion unit "progressing NVMe CQ pointer, ringing CQ doorbell,
// updating the CQ phase register if necessary".
func (q *QueuePair) ConsumeCQ() {
	q.cqHead = (q.cqHead + 1) % q.depth
	if q.cqHead == 0 {
		q.hostPhs = !q.hostPhs
	}
}

// Submitted returns the cumulative submission count.
func (q *QueuePair) Submitted() uint64 { return q.submitted }

// Completed returns the cumulative completion count.
func (q *QueuePair) Completed() uint64 { return q.completed }
