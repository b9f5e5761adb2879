package ssd

import (
	"testing"

	"hwdp/internal/fault"
	"hwdp/internal/nvme"
	"hwdp/internal/sim"
)

func submitRead(dev *Device, cid uint16, lba uint64) {
	dev.Deliver(dev.port(1), nvme.Command{Opcode: nvme.OpRead, CID: cid, NSID: 1, SLBA: lba})
}

func TestInjectedTransientCompletesWithRetryableStatus(t *testing.T) {
	eng, dev, done := newDev(t, noJitter(ZSSD), nil)
	dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.Transient, Prob: 1}))
	submitRead(dev, 1, 0)
	eng.Run()
	if len(*done) != 1 {
		t.Fatalf("completions: %d", len(*done))
	}
	cp := (*done)[0]
	if cp.Status != nvme.StatusCmdInterrupted {
		t.Fatalf("status = %s", nvme.StatusString(cp.Status))
	}
	if !nvme.StatusRetryable(cp.Status) {
		t.Fatal("transient status must be retryable")
	}
	if dev.Stats().InjTransient != 1 {
		t.Fatalf("stats = %+v", dev.Stats())
	}
	// The fault completes at normal service time — latency is unchanged.
	if eng.Now() != DoorbellWire+ZSSD.Read4K {
		t.Fatalf("latency = %v, want %v", eng.Now(), DoorbellWire+ZSSD.Read4K)
	}
}

func TestInjectedUECCDoesNotDMA(t *testing.T) {
	dmas := 0
	eng, dev, done := newDev(t, noJitter(ZSSD), func(nvme.Command) { dmas++ })
	dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.UECC, Prob: 1}))
	submitRead(dev, 1, 0)
	eng.Run()
	if len(*done) != 1 || (*done)[0].Status != nvme.StatusUncorrectable {
		t.Fatalf("completions: %+v", *done)
	}
	if dmas != 0 {
		t.Fatal("UECC must not transfer data")
	}
	if dev.Stats().InjUECC != 1 {
		t.Fatalf("stats = %+v", dev.Stats())
	}
}

func TestInjectedUECCOnWriteIsWriteFault(t *testing.T) {
	eng, dev, done := newDev(t, noJitter(ZSSD), nil)
	dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.UECC, Prob: 1}))
	dev.Deliver(dev.port(1), nvme.Command{Opcode: nvme.OpWrite, CID: 1, NSID: 1, SLBA: 0})
	eng.Run()
	if len(*done) != 1 || (*done)[0].Status != nvme.StatusWriteFault {
		t.Fatalf("completions: %+v", *done)
	}
}

func TestInjectedDropNeverCompletes(t *testing.T) {
	dmas := 0
	eng, dev, done := newDev(t, noJitter(ZSSD), func(nvme.Command) { dmas++ })
	dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.Drop, Prob: 1}))
	submitRead(dev, 1, 0)
	eng.Run()
	if len(*done) != 0 || dmas != 0 {
		t.Fatalf("dropped command completed: done=%d dmas=%d", len(*done), dmas)
	}
	if dev.Stats().InjDropped != 1 {
		t.Fatalf("stats = %+v", dev.Stats())
	}
	if dev.Inflight() != 0 {
		t.Fatal("drop must clear in-flight tracking when its service time elapses")
	}
}

func TestInjectedSpikeMultipliesLatency(t *testing.T) {
	eng, dev, done := newDev(t, noJitter(ZSSD), nil)
	dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.Spike, Prob: 1, SpikeFactor: 4}))
	submitRead(dev, 1, 0)
	eng.Run()
	if len(*done) != 1 || !(*done)[0].OK() {
		t.Fatalf("completions: %+v", *done)
	}
	if want := DoorbellWire + 4*ZSSD.Read4K; eng.Now() != want {
		t.Fatalf("spiked latency = %v, want %v", eng.Now(), want)
	}
	if dev.Stats().InjSpikes != 1 {
		t.Fatalf("stats = %+v", dev.Stats())
	}
}

func TestAbortCancelsPendingCommand(t *testing.T) {
	eng, dev, done := newDev(t, noJitter(ZSSD), nil)
	submitRead(dev, 7, 0)
	if dev.Inflight() != 1 {
		t.Fatalf("inflight = %d", dev.Inflight())
	}
	if !dev.Abort(1, 7) {
		t.Fatal("abort of pending command returned false")
	}
	if dev.Abort(1, 7) {
		t.Fatal("second abort found a ghost command")
	}
	eng.Run()
	if len(*done) != 0 {
		t.Fatalf("aborted command completed: %+v", *done)
	}
	if st := dev.Stats(); st.Aborts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAbortUnknownQueueOrCIDReturnsFalse pins Abort's misses: a queue
// that was never attached, a CID that already finished and a CID live on
// another queue all return false, and Inflight counts across queues.
func TestAbortUnknownQueueOrCIDReturnsFalse(t *testing.T) {
	eng, dev, done := newDev(t, noJitter(ZSSD), nil)
	var done2 []nvme.Completion
	p2 := dev.Attach(2, 0, func(cp nvme.Completion) { done2 = append(done2, cp) })
	submitRead(dev, 1, 0)
	eng.Run()
	submitRead(dev, 7, 0)
	dev.Deliver(p2, nvme.Command{Opcode: nvme.OpRead, CID: 7, NSID: 1, SLBA: 1})
	dev.Deliver(p2, nvme.Command{Opcode: nvme.OpRead, CID: 8, NSID: 1, SLBA: 2})
	if n := dev.Inflight(); n != 3 {
		t.Fatalf("inflight = %d, want 3 across two queues", n)
	}
	if dev.Abort(9, 7) {
		t.Fatal("abort on a never-attached queue returned true")
	}
	if dev.Abort(1, 1) {
		t.Fatal("abort of a finished CID returned true")
	}
	if dev.Abort(1, 8) {
		t.Fatal("abort found queue 2's CID on queue 1")
	}
	if !dev.Abort(2, 7) {
		t.Fatal("abort of queue 2's pending CID 7 returned false")
	}
	if n := dev.Inflight(); n != 2 {
		t.Fatalf("inflight after abort = %d, want 2", n)
	}
	eng.Run()
	if len(*done) != 2 || len(done2) != 1 || done2[0].CID != 8 {
		t.Fatalf("completions: queue 1 %+v, queue 2 %+v", *done, done2)
	}
	if dev.Inflight() != 0 || dev.Stats().Aborts != 1 {
		t.Fatalf("inflight %d, stats %+v", dev.Inflight(), dev.Stats())
	}
}

func TestAbortAfterCompletionReturnsFalse(t *testing.T) {
	eng, dev, done := newDev(t, noJitter(ZSSD), nil)
	submitRead(dev, 7, 0)
	eng.Run()
	if len(*done) != 1 {
		t.Fatalf("completions: %d", len(*done))
	}
	if dev.Abort(1, 7) {
		t.Fatal("abort of completed command returned true")
	}
	if st := dev.Stats(); st.Aborts != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAbortReleasesChannelTail(t *testing.T) {
	eng, dev, done := newDev(t, noJitter(ZSSD), nil)
	dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.Spike, Prob: 1, SpikeFactor: 100, MaxInjections: 1}))
	submitRead(dev, 1, 0)
	// Abort the spiked command shortly after issue, then re-read the same
	// LBA (same channel): the retry must not queue behind reserved media
	// time belonging to the canceled command.
	eng.Post(sim.Micro(1), func() {
		if !dev.Abort(1, 1) {
			t.Error("abort failed")
		}
		submitRead(dev, 2, 0)
	})
	eng.Run()
	if len(*done) != 1 || (*done)[0].CID != 2 {
		t.Fatalf("completions: %+v", *done)
	}
	if want := sim.Micro(1) + DoorbellWire + ZSSD.Read4K; eng.Now() != want {
		t.Fatalf("retry finished at %v, want %v (channel not released)", eng.Now(), want)
	}
}

func TestAbortedWriteReleasesWriteInterference(t *testing.T) {
	eng, dev, done := newDev(t, noJitter(ZSSD), nil)
	dev.Deliver(dev.port(1), nvme.Command{Opcode: nvme.OpWrite, CID: 1, NSID: 1, SLBA: 0})
	if !dev.Abort(1, 1) {
		t.Fatal("abort failed")
	}
	// A read on the same channel after the abort must see zero outstanding
	// writes — i.e. plain read latency, no interference penalty.
	submitRead(dev, 2, 0)
	eng.Run()
	if len(*done) != 1 || !(*done)[0].OK() {
		t.Fatalf("completions: %+v", *done)
	}
	if eng.Now() != DoorbellWire+ZSSD.Read4K {
		t.Fatalf("read after aborted write took %v, want %v", eng.Now(), DoorbellWire+ZSSD.Read4K)
	}
}

func TestInjectionRespectsLBARangeAndQueue(t *testing.T) {
	eng, dev, done := newDev(t, noJitter(ZSSD), nil)
	dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.UECC, Prob: 1, LBAStart: 100, LBAEnd: 200}))
	submitRead(dev, 1, 50)  // outside the faulty extent
	submitRead(dev, 2, 150) // inside
	eng.Run()
	if len(*done) != 2 {
		t.Fatalf("completions: %d", len(*done))
	}
	for _, cp := range *done {
		switch cp.CID {
		case 1:
			if !cp.OK() {
				t.Fatalf("clean LBA failed: %s", nvme.StatusString(cp.Status))
			}
		case 2:
			if cp.Status != nvme.StatusUncorrectable {
				t.Fatalf("faulty LBA status = %s", nvme.StatusString(cp.Status))
			}
		}
	}
}

// TestAbortAtMediaDone pins the in-flight boundary: a command is in flight
// through the picosecond its media work ends, so an abort armed before
// the delivery and firing exactly then cancels it, while one a picosecond
// later is too late and the completion still arrives, once.
func TestAbortAtMediaDone(t *testing.T) {
	done := DoorbellWire + ZSSD.Read4K
	for _, c := range []struct {
		at       sim.Time
		aborted  bool
		inflight int
	}{{done, true, 1}, {done + 1, false, 0}} {
		eng := sim.NewEngine()
		dev := New(eng, noJitter(ZSSD), sim.NewRand(1), nil)
		dev.AddNamespace(nvme.Namespace{ID: 1, Blocks: 1 << 20})
		var got []sim.Time
		p := dev.Attach(1, 100*sim.Nanosecond, func(nvme.Completion) { got = append(got, eng.Now()) })
		eng.Post(c.at, func() {
			if n := dev.Inflight(); n != c.inflight {
				t.Errorf("abort at %v: inflight = %d, want %d", c.at, n, c.inflight)
			}
			if ok := dev.Abort(1, 7); ok != c.aborted {
				t.Errorf("abort at %v = %v, want %v", c.at, ok, c.aborted)
			}
		})
		dev.Deliver(p, nvme.Command{Opcode: nvme.OpRead, CID: 7, NSID: 1})
		eng.Run()
		want := []sim.Time{done + 100*sim.Nanosecond}
		if c.aborted {
			want = nil
		}
		if len(got) != len(want) || (len(got) == 1 && got[0] != want[0]) {
			t.Errorf("abort at %v: completions at %v, want %v", c.at, got, want)
		}
	}
}
