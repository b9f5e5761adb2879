package ssd

import (
	"testing"

	"hwdp/internal/nvme"
	"hwdp/internal/sim"
)

// readLoop is a device with one port and a command stream driven one
// command at a time, from Deliver to its notify.
type readLoop struct {
	eng      *sim.Engine
	dev      *Device
	port     *Port
	notified bool
	n        uint64
}

func newReadLoop() *readLoop {
	l := &readLoop{eng: sim.NewEngine()}
	l.dev = New(l.eng, ZSSD, sim.NewRand(1), func(nvme.Command) {})
	l.dev.AddNamespace(nvme.Namespace{ID: 1, Blocks: 1 << 20})
	l.port = l.dev.Attach(1, 100*sim.Nanosecond, func(nvme.Completion) { l.notified = true })
	return l
}

// next delivers one command, every fourth a write, and runs the engine
// until its completion reaches notify.
func (l *readLoop) next() bool {
	op := nvme.OpRead
	if l.n%4 == 3 {
		op = nvme.OpWrite
	}
	l.notified = false
	l.dev.Deliver(l.port, nvme.Command{Opcode: op, CID: uint16(l.n), NSID: 1, SLBA: l.n % 64})
	l.n++
	for !l.notified && l.eng.Step() {
	}
	return l.notified
}

// TestDeliverAllocationBudget pins the device's share of the miss path at
// zero allocations: Deliver, the service (jitter, channel schedule,
// write-interference list) and the one completion event with its DMA and
// notify all run on pooled flights and pre-bound callbacks.
func TestDeliverAllocationBudget(t *testing.T) {
	l := newReadLoop()
	got := testing.AllocsPerRun(500, func() {
		if !l.next() {
			t.Fatal("command never completed")
		}
	})
	if got != 0 {
		t.Fatalf("Deliver to notify allocates %.1f objects/op, want 0", got)
	}
}

// BenchmarkDeliver measures one device command from Deliver to notify
// (three reads and a write per four ops, queue depth 1).
func BenchmarkDeliver(b *testing.B) {
	l := newReadLoop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !l.next() {
			b.Fatal("command never completed")
		}
	}
}
