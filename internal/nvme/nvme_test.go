package nvme

import (
	"errors"
	"testing"
	"testing/quick"
)

// TestCommandRoundTripProperty checks that the submission queue hands the
// device every command exactly as it was submitted.
func TestCommandRoundTripProperty(t *testing.T) {
	q := NewQueuePair(1, 4)
	f := func(op uint8, cid uint16, nsid uint32, prp, slba uint64, nlb uint16, urg bool) bool {
		c := Command{
			Opcode: []Opcode{OpFlush, OpWrite, OpRead}[op%3],
			CID:    cid, NSID: nsid, PRP1: prp, SLBA: slba, NLB: nlb, Urgent: urg,
		}
		if err := q.Submit(c); err != nil {
			return false
		}
		got, ok := q.PopSQ()
		return ok && got == c && got.Blocks() == int(nlb)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpcodeString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpFlush.String() != "flush" {
		t.Fatal("opcode strings")
	}
	if Opcode(0x99).String() != "op0x99" {
		t.Fatalf("unknown opcode: %s", Opcode(0x99))
	}
}

func TestQueuePairSubmitPop(t *testing.T) {
	q := NewQueuePair(1, 4)
	if q.Depth() != 4 {
		t.Fatal("depth")
	}
	for i := 0; i < 3; i++ {
		if err := q.Submit(Command{Opcode: OpRead, CID: uint16(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !q.SQFull() {
		t.Fatal("queue should be full at depth-1 entries")
	}
	if err := q.Submit(Command{Opcode: OpRead}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow err = %v", err)
	}
	if q.SQOutstanding() != 3 {
		t.Fatalf("outstanding = %d", q.SQOutstanding())
	}
	for i := 0; i < 3; i++ {
		c, ok := q.PopSQ()
		if !ok || c.CID != uint16(i) {
			t.Fatalf("pop %d: %+v %v", i, c, ok)
		}
	}
	if _, ok := q.PopSQ(); ok {
		t.Fatal("pop of empty queue succeeded")
	}
	if q.Submitted() != 3 {
		t.Fatalf("submitted = %d", q.Submitted())
	}
}

func TestQueueDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewQueuePair(0, 1)
}

func TestCompletionPhaseWrap(t *testing.T) {
	q := NewQueuePair(2, 4)
	// Fill one full CQ lap.
	for i := 0; i < 4; i++ {
		_ = q.Submit(Command{Opcode: OpRead, CID: uint16(i)})
		_, _ = q.PopSQ()
		q.PostCompletion(Completion{CID: uint16(i), Status: StatusSuccess})
		cp, ok := q.PollCQ()
		if !ok || cp.CID != uint16(i) || !cp.OK() {
			t.Fatalf("poll %d: %+v %v", i, cp, ok)
		}
		q.ConsumeCQ()
	}
	// After wrap the phase flips; a stale entry must not be seen.
	if _, ok := q.PollCQ(); ok {
		t.Fatal("stale completion visible after phase wrap")
	}
	// Second lap still works.
	_ = q.Submit(Command{Opcode: OpRead, CID: 99})
	_, _ = q.PopSQ()
	q.PostCompletion(Completion{CID: 99})
	cp, ok := q.PollCQ()
	if !ok || cp.CID != 99 {
		t.Fatalf("second lap: %+v %v", cp, ok)
	}
}

func TestPollEmptyCQ(t *testing.T) {
	q := NewQueuePair(1, 8)
	if _, ok := q.PollCQ(); ok {
		t.Fatal("empty CQ polled an entry")
	}
}

func TestCompletionCarriesSQHead(t *testing.T) {
	q := NewQueuePair(7, 8)
	_ = q.Submit(Command{Opcode: OpWrite, CID: 5})
	_, _ = q.PopSQ()
	q.PostCompletion(Completion{CID: 5})
	cp, _ := q.PollCQ()
	if cp.SQID != 7 {
		t.Fatalf("sqid = %d", cp.SQID)
	}
	if cp.SQHead != 1 {
		t.Fatalf("sqhead = %d", cp.SQHead)
	}
}

// Property: any interleaving of submit/pop/complete/consume keeps counts
// consistent and never loses or duplicates a command.
func TestQueuePairFIFOProperty(t *testing.T) {
	f := func(ops []byte) bool {
		q := NewQueuePair(1, 8)
		var nextCID uint16
		var inFlight []uint16 // popped by device, completion not yet consumed
		var wantNext uint16   // next CID the host must consume
		for _, op := range ops {
			switch op % 3 {
			case 0: // submit
				if err := q.Submit(Command{Opcode: OpRead, CID: nextCID}); err == nil {
					nextCID++
				}
			case 1: // device: pop + complete
				if len(inFlight) >= q.Depth()-1 {
					break // host guarantees CQ space for outstanding cmds
				}
				if c, ok := q.PopSQ(); ok {
					q.PostCompletion(Completion{CID: c.CID})
					inFlight = append(inFlight, c.CID)
				}
			case 2: // host: poll + consume
				if cp, ok := q.PollCQ(); ok {
					if cp.CID != wantNext {
						return false
					}
					wantNext++
					q.ConsumeCQ()
					inFlight = inFlight[1:]
				}
			}
		}
		return q.Completed() <= q.Submitted()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
