package smu

import (
	"hwdp/internal/mem"
	"hwdp/internal/sim"
)

// FrameRecord is one entry of the free page queue: a physical frame number
// and the DMA address the NVMe command will target (paper: "a circular
// queue residing in memory containing a set of <PFN, DMA address> pairs").
type FrameRecord struct {
	PFN mem.FrameID
	DMA uint64
}

// RecordFor builds the record for a frame (DMA address = frame base).
func RecordFor(pfn mem.FrameID) FrameRecord {
	return FrameRecord{PFN: pfn, DMA: uint64(pfn) * mem.PageSize}
}

// FreeQueue is the in-memory free page queue plus the SMU's small prefetch
// buffer. It is single-producer (the OS page-refill path / kpoold) and
// single-consumer (the SMU's free page fetcher), so no synchronization is
// modeled — exactly the paper's design. The hardware eagerly prefetches a
// few entries into the SMU so the common-case fetch does not expose a
// memory round trip.
type FreeQueue struct {
	ring  []FrameRecord
	head  int // consumer index (hardware register)
	tail  int // producer index (hardware register)
	depth int

	// Prefetch buffer inside the SMU: a head-indexed deque over a slice
	// whose backing array is reused (compacted rather than re-sliced), so
	// steady-state prefetch/pop traffic allocates nothing.
	buf     []FrameRecord
	bufHead int
	bufCap  int
	pops    uint64
	refills uint64

	// due holds the prefetches the SMU made due at marks in the engine's
	// event order (prefetchAt), oldest first. Every method that reads or
	// changes the ring or the buffer first runs those already reached, so
	// it sees the queue as it would be had each prefetch been an event.
	eng *sim.Engine
	due []sim.Mark
}

// NewFreeQueue creates a queue with the given ring depth and prefetch
// buffer capacity (the paper's prototype: depth 4096, buffer 16).
func NewFreeQueue(depth, bufCap int) *FreeQueue {
	if depth < 2 || bufCap < 1 {
		panic("smu: bad free queue geometry")
	}
	// buf is preallocated to its capacity so the miss path's prefetch
	// appends never grow it.
	return &FreeQueue{
		ring:   make([]FrameRecord, depth),
		depth:  depth,
		buf:    make([]FrameRecord, 0, bufCap),
		bufCap: bufCap,
	}
}

// Depth returns the ring capacity (one slot reserved to distinguish full
// from empty).
func (q *FreeQueue) Depth() int { return q.depth - 1 }

// Len returns the number of records in the ring (excluding the prefetch
// buffer).
func (q *FreeQueue) Len() int {
	q.catchUp()
	return (q.tail - q.head + q.depth) % q.depth
}

// Buffered returns the number of records in the prefetch buffer.
func (q *FreeQueue) Buffered() int {
	q.catchUp()
	return len(q.buf) - q.bufHead
}

// Space returns how many records the producer can still push.
func (q *FreeQueue) Space() int { return q.Depth() - q.Len() }

// Push appends records (producer side). It returns the number actually
// enqueued (stops when the ring is full).
func (q *FreeQueue) Push(recs []FrameRecord) int {
	q.catchUp()
	n := 0
	for _, r := range recs {
		if (q.tail+1)%q.depth == q.head {
			break
		}
		q.ring[q.tail] = r
		q.tail = (q.tail + 1) % q.depth
		n++
	}
	if n > 0 {
		q.refills++
	}
	return n
}

// Prefetch moves up to the buffer capacity of records from the ring into
// the SMU-internal buffer. Hardware runs this opportunistically; the SMU
// runs it when its doorbell write for a read has crossed the wire (the
// device I/O time hides it), when an anonymous zero-fill retires (no
// device time did), and at refill.
func (q *FreeQueue) Prefetch() {
	q.catchUp()
	q.prefetch()
}

// prefetchAt makes a Prefetch due at mark m, which must not come before
// the marks already due. An SMU issue makes one due at the end of its
// doorbell wire in place of posting an event there.
func (q *FreeQueue) prefetchAt(m sim.Mark) {
	q.catchUp()
	// Every mark left is unreached, and a PMSHR record has at most one of
	// those: its next issue is an event posted once its command has
	// completed or timed out, no earlier than the end of the wire, so it
	// fires after the mark. So due, sized to the PMSHR, never outgrows its
	// capacity.
	q.due = q.due[:len(q.due)+1]
	q.due[len(q.due)-1] = m
}

// catchUp runs the prefetches whose marks the engine has reached.
func (q *FreeQueue) catchUp() {
	if len(q.due) > 0 {
		q.runDue()
	}
}

// runDue is catchUp's slow path. One prefetch stands for all the reached
// marks: nothing touched the queue in between.
func (q *FreeQueue) runDue() {
	n := 0
	for n < len(q.due) && q.eng.Reached(q.due[n]) {
		n++
	}
	if n > 0 {
		q.due = q.due[:copy(q.due, q.due[n:])]
		q.prefetch()
	}
}

func (q *FreeQueue) prefetch() {
	if q.bufHead > 0 {
		// Compact consumed slots so append reuses the backing array.
		n := copy(q.buf, q.buf[q.bufHead:])
		q.buf = q.buf[:n]
		q.bufHead = 0
	}
	for len(q.buf) < q.bufCap && q.head != q.tail {
		//hwdp:ignore hotalloc bounded by bufCap, whose backing array is preallocated at construction and reused by compaction
		q.buf = append(q.buf, q.ring[q.head])
		q.head = (q.head + 1) % q.depth
	}
}

// Pop takes one record, preferring the prefetch buffer. fromBuffer reports
// whether the fast path was hit (no memory round trip); ok is false when
// both the buffer and the ring are empty — the case where the SMU fails
// the miss back to the OS.
func (q *FreeQueue) Pop() (rec FrameRecord, fromBuffer, ok bool) {
	q.catchUp()
	if q.bufHead < len(q.buf) {
		rec = q.buf[q.bufHead]
		q.bufHead++
		if q.bufHead == len(q.buf) {
			q.buf = q.buf[:0]
			q.bufHead = 0
		}
		q.pops++
		return rec, true, true
	}
	if q.head == q.tail {
		return FrameRecord{}, false, false
	}
	rec = q.ring[q.head]
	q.head = (q.head + 1) % q.depth
	q.pops++
	return rec, false, true
}

// Requeue returns a popped record to the prefetch buffer. This is the
// failure path: the I/O the frame was popped for never installed it, so the
// frame is still free and must not leak. The buffer may transiently exceed
// its capacity; Prefetch simply stays idle until pops drain it back down.
func (q *FreeQueue) Requeue(rec FrameRecord) {
	q.catchUp()
	//hwdp:ignore hotalloc failure-path only (frame recycle after I/O error or race yield); a transient over-capacity append drains back via pops
	q.buf = append(q.buf, rec)
}

// Pops returns the cumulative successful pop count.
func (q *FreeQueue) Pops() uint64 { return q.pops }

// Refills returns the number of Push calls that enqueued at least one
// record.
func (q *FreeQueue) Refills() uint64 { return q.refills }
