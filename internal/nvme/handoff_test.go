package nvme_test

// These tests drive the command/completion hand-off through the device
// model: a queue is its ID, each command crosses the doorbell wire to the
// device, and each completion reaches the host's notify with the command's
// CID, the queue's ID and the status. No ring holds an entry in between,
// so the properties a ring used to guarantee (no stale entry after a lap,
// an idle queue yields nothing, a completion names its queue, a round trip
// delivers once) are checked at the notify boundary.

import (
	"testing"

	"hwdp/internal/nvme"
	"hwdp/internal/sim"
	"hwdp/internal/ssd"
)

// handoff is a device with namespace 1 and the completions each attached
// queue was notified of, in arrival order.
type handoff struct {
	eng  *sim.Engine
	dev  *ssd.Device
	dma  []nvme.Command
	seen map[uint16][]nvme.Completion
}

func newHandoff() *handoff {
	h := &handoff{eng: sim.NewEngine(), seen: map[uint16][]nvme.Completion{}}
	prof := ssd.ZSSD
	prof.JitterFrac = 0
	h.dev = ssd.New(h.eng, prof, sim.NewRand(1), func(cmd nvme.Command) { h.dma = append(h.dma, cmd) })
	h.dev.AddNamespace(nvme.Namespace{ID: 1, Blocks: 1 << 20})
	return h
}

func (h *handoff) attach(qid uint16) *ssd.Port {
	return h.dev.Attach(qid, 0, func(cp nvme.Completion) { h.seen[qid] = append(h.seen[qid], cp) })
}

// TestCompletionPhaseWrap runs two laps of commands through one queue,
// reusing the first lap's CIDs in the second. Each command is notified
// exactly once; once a lap has drained, nothing from it is seen again.
func TestCompletionPhaseWrap(t *testing.T) {
	h := newHandoff()
	p := h.attach(2)
	const lap = 4
	for i := 0; i < lap; i++ {
		h.dev.Deliver(p, nvme.Command{Opcode: nvme.OpRead, CID: uint16(i), NSID: 1, SLBA: uint64(i)})
		h.eng.Run()
		got := h.seen[2]
		if len(got) != i+1 || got[i].CID != uint16(i) || !got[i].OK() {
			t.Fatalf("after command %d: completions %+v", i, got)
		}
	}
	// A drained lap leaves nothing to deliver.
	h.eng.Run()
	if len(h.seen[2]) != lap {
		t.Fatalf("stale completion after the lap: %+v", h.seen[2])
	}
	// Second lap reuses CID 0; only the new command is notified.
	h.dev.Deliver(p, nvme.Command{Opcode: nvme.OpRead, CID: 0, NSID: 1, SLBA: 99})
	h.eng.Run()
	got := h.seen[2]
	if len(got) != lap+1 || got[lap].CID != 0 || !got[lap].OK() {
		t.Fatalf("second lap: completions %+v", got)
	}
	if h.dev.Inflight() != 0 {
		t.Fatalf("inflight = %d after both laps drained", h.dev.Inflight())
	}
}

// TestPollEmptyCQ checks that a queue with nothing submitted is never
// notified, even while another queue on the same device completes work.
func TestPollEmptyCQ(t *testing.T) {
	h := newHandoff()
	h.attach(1)
	h.eng.Run()
	if len(h.seen[1]) != 0 {
		t.Fatalf("idle queue notified: %+v", h.seen[1])
	}
	busy := h.attach(3)
	h.dev.Deliver(busy, nvme.Command{Opcode: nvme.OpWrite, CID: 1, NSID: 1, SLBA: 7})
	h.eng.Run()
	if len(h.seen[1]) != 0 {
		t.Fatalf("idle queue notified of another queue's completion: %+v", h.seen[1])
	}
	if len(h.seen[3]) != 1 {
		t.Fatalf("busy queue: completions %+v", h.seen[3])
	}
}

// TestCompletionCarriesSQHead checks that each completion names the queue
// its command was submitted on, and that the device has consumed the
// command by the time the host sees it: nothing is left in flight on the
// device when the completion arrives (the consumption point a ring's SQ
// head used to report).
func TestCompletionCarriesSQHead(t *testing.T) {
	h := newHandoff()
	inflight := -1
	p := h.dev.Attach(7, 0, func(cp nvme.Completion) {
		h.seen[7] = append(h.seen[7], cp)
		inflight = h.dev.Inflight()
	})
	h.dev.Deliver(p, nvme.Command{Opcode: nvme.OpWrite, CID: 5, NSID: 1, SLBA: 1})
	h.eng.Run()
	got := h.seen[7]
	if len(got) != 1 || got[0].CID != 5 {
		t.Fatalf("completions %+v", got)
	}
	if got[0].SQID != 7 {
		t.Fatalf("sqid = %d, want 7", got[0].SQID)
	}
	if inflight != 0 {
		t.Fatalf("device still holds %d command(s) when the completion arrives", inflight)
	}
}

// TestQueuePairRoundTripDelivery checks one round trip: the command reaches
// the device intact (its DMA sees the same CID and LBA) and its completion
// is delivered exactly once with the matching CID.
func TestQueuePairRoundTripDelivery(t *testing.T) {
	h := newHandoff()
	p := h.attach(1)
	h.dev.Deliver(p, nvme.Command{Opcode: nvme.OpRead, CID: 77, NSID: 1, SLBA: 123})
	h.eng.Run()
	if len(h.dma) != 1 || h.dma[0].CID != 77 || h.dma[0].SLBA != 123 {
		t.Fatalf("DMA saw %+v, want one command with CID 77 SLBA 123", h.dma)
	}
	got := h.seen[1]
	if len(got) != 1 || got[0].CID != 77 || !got[0].OK() {
		t.Fatalf("completions %+v, want one successful CID 77", got)
	}
	h.eng.Run()
	if len(h.seen[1]) != 1 {
		t.Fatal("completion delivered twice")
	}
}
