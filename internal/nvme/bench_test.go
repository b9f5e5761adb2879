package nvme

import "testing"

func BenchmarkQueuePairRoundTrip(b *testing.B) {
	q := NewQueuePair(1, 64)
	for i := 0; i < b.N; i++ {
		_ = q.Submit(Command{Opcode: OpRead, CID: uint16(i)})
		c, _ := q.PopSQ()
		q.PostCompletion(Completion{CID: c.CID})
		if _, ok := q.PollCQ(); ok {
			q.ConsumeCQ()
		}
	}
}

// TestQueuePairRoundTripDelivery asserts the correctness of the loop the
// benchmark above measures: a submitted command pops back intact and its
// completion is observed exactly once with the matching CID.
func TestQueuePairRoundTripDelivery(t *testing.T) {
	q := NewQueuePair(1, 64)
	if err := q.Submit(Command{Opcode: OpRead, CID: 77, SLBA: 123}); err != nil {
		t.Fatalf("submit failed on empty queue: %v", err)
	}
	c, ok := q.PopSQ()
	if !ok || c.CID != 77 || c.SLBA != 123 {
		t.Fatalf("popped %+v ok=%v, want CID 77 SLBA 123", c, ok)
	}
	q.PostCompletion(Completion{CID: c.CID, Status: StatusSuccess})
	cp, ok := q.PollCQ()
	if !ok || cp.CID != 77 || !cp.OK() {
		t.Fatalf("completion %+v ok=%v", cp, ok)
	}
	q.ConsumeCQ()
	if _, ok := q.PollCQ(); ok {
		t.Fatal("completion delivered twice")
	}
}
