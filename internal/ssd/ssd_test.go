package ssd

import (
	"testing"

	"hwdp/internal/nvme"
	"hwdp/internal/sim"
)

func newDev(t *testing.T, prof Profile, dma DMAFunc) (*sim.Engine, *Device, *[]nvme.Completion) {
	t.Helper()
	eng := sim.NewEngine()
	dev := New(eng, prof, sim.NewRand(1), dma)
	dev.AddNamespace(nvme.Namespace{ID: 1, Blocks: 1 << 20})
	qp := nvme.NewQueuePair(1, 64)
	var done []nvme.Completion
	dev.Attach(qp, 0, func(cp nvme.Completion) { done = append(done, cp) })
	return eng, dev, &done
}

func noJitter(p Profile) Profile { p.JitterFrac = 0; return p }

func TestSingleReadLatency(t *testing.T) {
	eng, dev, done := newDev(t, noJitter(ZSSD), nil)
	dev.Deliver(1, nvme.Command{Opcode: nvme.OpRead, CID: 1, NSID: 1, SLBA: 0}, 0)
	eng.Run()
	if len(*done) != 1 || !(*done)[0].OK() {
		t.Fatalf("completions: %+v", *done)
	}
	if eng.Now() != ZSSD.Read4K {
		t.Fatalf("read latency = %v, want %v", eng.Now(), ZSSD.Read4K)
	}
	if dev.Stats().Reads != 1 {
		t.Fatal("read not counted")
	}
}

func TestProfilesMatchPaperDeviceTimes(t *testing.T) {
	// Figure 17: 4KB read device time 10.9us (Z-SSD) .. 2.1us (Optane DC PMM).
	for _, c := range []struct {
		p    Profile
		want sim.Time
	}{
		{ZSSD, sim.Micro(10.9)},
		{OptaneSSD, sim.Micro(6.5)},
		{OptaneDCPMM, sim.Micro(2.1)},
	} {
		if c.p.Read4K != c.want {
			t.Errorf("%s Read4K = %v, want %v", c.p.Name, c.p.Read4K, c.want)
		}
	}
}

func TestChannelParallelism(t *testing.T) {
	eng, dev, done := newDev(t, noJitter(ZSSD), nil)
	// 8 reads striped over 8 channels: total time ~= one read.
	for i := 0; i < 8; i++ {
		dev.Deliver(1, nvme.Command{Opcode: nvme.OpRead, CID: uint16(i), NSID: 1, SLBA: uint64(i)}, 0)
	}
	eng.Run()
	if len(*done) != 8 {
		t.Fatalf("done = %d", len(*done))
	}
	if eng.Now() != ZSSD.Read4K {
		t.Fatalf("parallel reads took %v", eng.Now())
	}
}

func TestSameChannelSerializes(t *testing.T) {
	eng, dev, done := newDev(t, noJitter(ZSSD), nil)
	// Same channel (stride = channel count): serial service.
	for i := 0; i < 4; i++ {
		dev.Deliver(1, nvme.Command{Opcode: nvme.OpRead, CID: uint16(i), NSID: 1, SLBA: uint64(i * ZSSD.Channels)}, 0)
	}
	eng.Run()
	if len(*done) != 4 {
		t.Fatalf("done = %d", len(*done))
	}
	if eng.Now() != 4*ZSSD.Read4K {
		t.Fatalf("serial reads took %v, want %v", eng.Now(), 4*ZSSD.Read4K)
	}
	if dev.Stats().QueueWaitSum == 0 {
		t.Fatal("queue wait not recorded")
	}
}

func TestWriteInterferenceSlowsReads(t *testing.T) {
	eng, dev, _ := newDev(t, noJitter(ZSSD), nil)
	// Launch a write, then while it is in flight, a read on the same channel.
	dev.Deliver(1, nvme.Command{Opcode: nvme.OpWrite, CID: 1, NSID: 1, SLBA: 0}, 0)
	var readDone sim.Time
	eng.After(sim.Micro(1), func() {
		dev.Deliver(1, nvme.Command{Opcode: nvme.OpRead, CID: 2, NSID: 1, SLBA: uint64(ZSSD.Channels)}, 0)
	})
	eng.Run()
	readDone = eng.Now()
	// Read waits for the write to finish AND pays interference.
	minEnd := ZSSD.Write4K + ZSSD.Read4K
	if readDone <= minEnd {
		t.Fatalf("no interference: end = %v, min = %v", readDone, minEnd)
	}
}

func TestUrgentReadSkipsInterference(t *testing.T) {
	run := func(urgent bool) sim.Time {
		eng, dev, _ := newDev(t, noJitter(ZSSD), nil)
		dev.Deliver(1, nvme.Command{Opcode: nvme.OpWrite, CID: 1, NSID: 1, SLBA: 0}, 0)
		eng.After(sim.Micro(1), func() {
			dev.Deliver(1, nvme.Command{Opcode: nvme.OpRead, CID: 2, NSID: 1, SLBA: uint64(ZSSD.Channels), Urgent: urgent}, 0)
		})
		eng.Run()
		return eng.Now()
	}
	if u, n := run(true), run(false); u >= n {
		t.Fatalf("urgent %v not faster than normal %v", u, n)
	}
}

func TestInvalidNamespace(t *testing.T) {
	eng, dev, done := newDev(t, noJitter(ZSSD), nil)
	dev.Deliver(1, nvme.Command{Opcode: nvme.OpRead, CID: 9, NSID: 42, SLBA: 0}, 0)
	eng.Run()
	if len(*done) != 1 || (*done)[0].Status != nvme.StatusInvalidNS {
		t.Fatalf("completions: %+v", *done)
	}
}

func TestLBARangeError(t *testing.T) {
	eng, dev, done := newDev(t, noJitter(ZSSD), nil)
	dev.Deliver(1, nvme.Command{Opcode: nvme.OpRead, CID: 9, NSID: 1, SLBA: 1 << 20}, 0)
	eng.Run()
	if (*done)[0].Status != nvme.StatusLBARange {
		t.Fatalf("status = %#x", (*done)[0].Status)
	}
}

func TestDMACallbackRuns(t *testing.T) {
	var got []nvme.Command
	eng, dev, _ := newDev(t, noJitter(ZSSD), func(c nvme.Command) { got = append(got, c) })
	dev.Deliver(1, nvme.Command{Opcode: nvme.OpRead, CID: 3, NSID: 1, SLBA: 77, PRP1: 0x1000}, 0)
	eng.Run()
	if len(got) != 1 || got[0].SLBA != 77 || got[0].PRP1 != 0x1000 {
		t.Fatalf("dma calls: %+v", got)
	}
}

func TestFlush(t *testing.T) {
	eng, dev, done := newDev(t, noJitter(ZSSD), nil)
	dev.Deliver(1, nvme.Command{Opcode: nvme.OpFlush, CID: 1, NSID: 1}, 0)
	eng.Run()
	if len(*done) != 1 || !(*done)[0].OK() {
		t.Fatal("flush failed")
	}
	if dev.Stats().Flushes != 1 {
		t.Fatal("flush not counted")
	}
}

func TestDoubleAttachPanics(t *testing.T) {
	eng := sim.NewEngine()
	dev := New(eng, ZSSD, sim.NewRand(1), nil)
	qp := nvme.NewQueuePair(1, 4)
	dev.Attach(qp, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	dev.Attach(qp, 0, nil)
}

func TestUnattachedDoorbellPanics(t *testing.T) {
	eng := sim.NewEngine()
	dev := New(eng, ZSSD, sim.NewRand(1), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	dev.Deliver(5, nvme.Command{Opcode: nvme.OpRead, CID: 1, NSID: 1}, 0)
}

func TestJitterBounded(t *testing.T) {
	eng := sim.NewEngine()
	dev := New(eng, ZSSD, sim.NewRand(7), nil)
	for i := 0; i < 10000; i++ {
		v := dev.jitter(ZSSD.Read4K)
		if v < sim.Time(float64(ZSSD.Read4K)*0.7) {
			t.Fatalf("jitter below floor: %v", v)
		}
		if v > 2*ZSSD.Read4K {
			t.Fatalf("jitter way above base: %v", v)
		}
	}
}
