package ssd_test

import (
	"fmt"
	"testing"

	"hwdp/internal/fault"
	"hwdp/internal/nvme"
	"hwdp/internal/sim"
	"hwdp/internal/ssd"
	"hwdp/internal/ssd/modeled"
	"hwdp/internal/trace"
)

// refDevice is the reference the one-event device is checked against: the
// device as it ran with three engine events per command. A delivered
// command crosses the doorbell wire as an event of its own and is serviced
// when it lands; a second event at media done retires it and posts the
// completion on the irq wire; a third runs the DMA and notify. A channel
// counts its outstanding writes in a plain counter that the media-done
// event decrements.
type refDevice struct {
	eng     *sim.Engine
	prof    ssd.Profile
	rng     *sim.Rand
	ns      map[uint32]nvme.Namespace
	ports   []*refPort
	chans   []refChannel
	dma     ssd.DMAFunc
	backend ssd.Backend
	inj     *fault.Injector
	stats   ssd.Stats
}

type refPort struct {
	qid      uint16
	irq      sim.Time
	notify   ssd.NotifyFunc
	inflight nvme.CIDTable[*refFlight]
}

type refChannel struct {
	freeAt            sim.Time
	outstandingWrites int
}

type refFlight struct {
	ev   *sim.Event
	at   *refPort
	cmd  nvme.Command
	kind fault.Kind
	ch   *refChannel
	done sim.Time
}

func newRefDevice(eng *sim.Engine, prof ssd.Profile, rng *sim.Rand, dma ssd.DMAFunc) *refDevice {
	return &refDevice{eng: eng, prof: prof, rng: rng, ns: map[uint32]nvme.Namespace{},
		chans: make([]refChannel, prof.Channels), dma: dma}
}

func (d *refDevice) attach(qid uint16, irq sim.Time, notify ssd.NotifyFunc) *refPort {
	p := &refPort{qid: qid, irq: irq, notify: notify}
	d.ports = append(d.ports, p)
	return p
}

func (d *refDevice) port(qid uint16) *refPort {
	for _, p := range d.ports {
		if p.qid == qid {
			return p
		}
	}
	return nil
}

func (d *refDevice) deliver(at *refPort, cmd nvme.Command) {
	d.eng.Post(ssd.DoorbellWire, func() { d.service(at, cmd) })
}

func (d *refDevice) service(at *refPort, cmd nvme.Command) {
	now := d.eng.Now()
	status := nvme.StatusSuccess
	if ns, ok := d.ns[cmd.NSID]; !ok {
		status = nvme.StatusInvalidNS
	} else if cmd.Opcode != nvme.OpFlush && cmd.SLBA+uint64(cmd.Blocks()) > ns.Blocks {
		status = nvme.StatusLBARange
	}
	if status != nvme.StatusSuccess {
		cmd.Trace.Mark(trace.LayerSSD, "rejected", now)
		d.eng.Post(ssd.RejectLatency, func() { d.complete(at, cmd, status) })
		return
	}
	var ch *refChannel
	var start, done sim.Time
	var dec fault.Decision
	if d.backend != nil {
		switch cmd.Opcode {
		case nvme.OpRead:
			d.stats.Reads++
		case nvme.OpWrite:
			d.stats.Writes++
		case nvme.OpFlush:
			d.stats.Flushes++
		}
		spike := 1.0
		if d.inj != nil {
			dec = d.inj.Decide(cmd.Opcode == nvme.OpRead, cmd.SLBA, at.qid)
			if dec.Kind == fault.Spike {
				d.stats.InjSpikes++
				spike = dec.SpikeFactor
			}
		}
		adm := d.backend.Admit(now, cmd, spike)
		start, done = adm.Start, adm.Done
		if start > now {
			d.stats.QueueWaitSum += start - now
		}
		d.stats.MediaBusySum += done - start
		if cmd.Opcode == nvme.OpRead {
			d.stats.ReadLatencySum += done - now
		}
	} else {
		ch = &d.chans[int(cmd.SLBA)%len(d.chans)]
		var svc sim.Time
		switch cmd.Opcode {
		case nvme.OpRead:
			d.stats.Reads++
			svc = d.jitter(d.prof.Read4K) * sim.Time(cmd.Blocks())
			if !cmd.Urgent && ch.outstandingWrites > 0 {
				svc += sim.Time(float64(d.prof.Read4K) * d.prof.WriteInterference * float64(ch.outstandingWrites))
			}
		case nvme.OpWrite:
			d.stats.Writes++
			svc = d.jitter(d.prof.Write4K) * sim.Time(cmd.Blocks())
			ch.outstandingWrites++
		case nvme.OpFlush:
			d.stats.Flushes++
			svc = d.jitter(d.prof.Write4K / 2)
		}
		if d.inj != nil {
			dec = d.inj.Decide(cmd.Opcode == nvme.OpRead, cmd.SLBA, at.qid)
			if dec.Kind == fault.Spike {
				d.stats.InjSpikes++
				svc = sim.Time(float64(svc) * dec.SpikeFactor)
			}
		}
		start = now
		if ch.freeAt > start {
			d.stats.QueueWaitSum += ch.freeAt - start
			start = ch.freeAt
		}
		done = start + svc
		ch.freeAt = done
		d.stats.MediaBusySum += svc
		if cmd.Opcode == nvme.OpRead {
			d.stats.ReadLatencySum += done - now
		}
	}
	fl := &refFlight{at: at, cmd: cmd, kind: dec.Kind, ch: ch, done: done}
	if !at.inflight.Put(cmd.CID, fl) {
		panic(fmt.Sprintf("ref: duplicate in-flight CID %d on queue %d", cmd.CID, at.qid))
	}
	fl.ev = d.eng.AtArgPooled(done, func(a any) { d.finish(a.(*refFlight)) }, fl)
}

func (d *refDevice) finish(fl *refFlight) {
	fl.at.inflight.Take(fl.cmd.CID)
	if fl.cmd.Opcode == nvme.OpWrite && fl.ch != nil {
		fl.ch.outstandingWrites--
	}
	status := nvme.StatusSuccess
	switch fl.kind {
	case fault.Drop:
		d.stats.InjDropped++
		return
	case fault.Transient:
		d.stats.InjTransient++
		status = nvme.StatusCmdInterrupted
	case fault.UECC:
		d.stats.InjUECC++
		status = nvme.StatusWriteFault
		if fl.cmd.Opcode == nvme.OpRead {
			status = nvme.StatusUncorrectable
		}
	case fault.None, fault.Spike:
	}
	d.complete(fl.at, fl.cmd, status)
}

func (d *refDevice) complete(at *refPort, cmd nvme.Command, status uint16) {
	d.eng.Post(at.irq, func() {
		if status == nvme.StatusSuccess && d.dma != nil {
			d.dma(cmd)
		}
		at.notify(nvme.Completion{CID: cmd.CID, SQID: at.qid, Status: status})
	})
}

func (d *refDevice) abort(qid, cid uint16) bool {
	at := d.port(qid)
	if at == nil {
		return false
	}
	fl, ok := at.inflight.Take(cid)
	if !ok {
		return false
	}
	fl.ev.Cancel()
	if fl.ch != nil {
		if fl.cmd.Opcode == nvme.OpWrite {
			fl.ch.outstandingWrites--
		}
		if fl.ch.freeAt == fl.done {
			if now := d.eng.Now(); now < fl.ch.freeAt {
				fl.ch.freeAt = now
			}
		}
	}
	d.stats.Aborts++
	return true
}

func (d *refDevice) inflight() int {
	n := 0
	for _, p := range d.ports {
		n += p.inflight.Len()
	}
	return n
}

func (d *refDevice) jitter(base sim.Time) sim.Time {
	if d.prof.JitterFrac == 0 || d.rng == nil {
		return base
	}
	v := d.rng.Norm(float64(base), float64(base)*d.prof.JitterFrac)
	if min := float64(base) * 0.7; v < min {
		v = min
	}
	return sim.Time(v)
}

// refScenario is one randomized comparison: a device configuration and
// the seed its command stream, ports and abort plan are drawn from.
type refScenario struct {
	prof    ssd.Profile
	modeled bool
	churn   float64
	rules   []fault.Rule
	seed    uint64
}

const (
	refBlocks   = 1 << 12 // namespace 1's size, in blocks
	refCommands = 1500
)

// refCmd is one delivery of the stream: when, through which port, what,
// and how to abort it (0 none, 1 before media done, 2 at media done,
// 3 after media done).
type refCmd struct {
	at    sim.Time
	port  int
	cmd   nvme.Command
	abort int
	u     float64
}

type refPortCfg struct {
	qid uint16
	irq sim.Time
}

// refTrace is what one run of a stream shows the host.
type refTrace struct {
	notes    []string
	dmas     []string
	aborts   []string
	tries    [4]int // aborts tried, by kind
	hits     [4]int // aborts that found their command, by kind
	stats    ssd.Stats
	injStats fault.Stats
	inflight int
}

// refSide adapts the device under test and the reference to one driver.
type refSide struct {
	deliver  func(port int, cmd nvme.Command)
	abort    func(qid, cid uint16) bool
	inflight func() int
	stats    func() ssd.Stats
	// done reports a delivered command's media-done time, when the side
	// can tell at delivery (the device under test only).
	done func(qid, cid uint16) (sim.Time, bool)
}

func genStream(sc refScenario) ([]refPortCfg, []refCmd) {
	rng := sim.NewRand(sc.seed)
	ports := []refPortCfg{{1, sim.Time(1000 + rng.Intn(200_000))}, {4, sim.Time(1000 + rng.Intn(200_000))},
		{9, sim.Time(1000 + rng.Intn(200_000))}}
	nextCID := make([]uint16, len(ports))
	cmds := make([]refCmd, refCommands)
	var t sim.Time
	for i := range cmds {
		if rng.Float64() > 0.1 {
			t += sim.Time(rng.Intn(int(3 * sim.Microsecond)))
		}
		c := refCmd{at: t, port: rng.Intn(len(ports)), u: rng.Float64()}
		c.cmd = nvme.Command{CID: nextCID[c.port], NSID: 1, PRP1: uint64(i)}
		nextCID[c.port]++
		if rng.Float64() < 0.15 {
			c.cmd.NLB = uint16(1 + rng.Intn(3))
		}
		switch r := rng.Float64(); {
		case r < 0.6:
			c.cmd.Opcode = nvme.OpRead
			c.cmd.Urgent = rng.Float64() < 0.1
		case r < 0.95:
			c.cmd.Opcode = nvme.OpWrite
		default:
			c.cmd.Opcode = nvme.OpFlush
		}
		c.cmd.SLBA = uint64(rng.Intn(refBlocks + 4))
		if rng.Float64() < 0.03 {
			c.cmd.NSID = []uint32{0, 3, 99}[rng.Intn(3)]
		}
		if rng.Float64() < 0.2 {
			c.abort = 1 + rng.Intn(3)
		}
		cmds[i] = c
	}
	return ports, cmds
}

// runStream drives one side through the stream. plan holds each
// command's abort time (-1 for none); with learn set, it is filled in at
// delivery from the side's media-done times instead.
//
// It returns, by abort kind, how many aborts were tried and how many
// found their command.
func runStream(eng *sim.Engine, side refSide, ports []refPortCfg, cmds []refCmd, plan []sim.Time, learn bool) (tries, hits [4]int) {
	for i := range cmds {
		i := i
		c := cmds[i]
		qid := ports[c.port].qid
		abort := func() {
			tries[c.abort]++
			if side.abort(qid, c.cmd.CID) {
				hits[c.abort]++
			}
		}
		eng.Post(c.at, func() {
			if learn {
				side.deliver(c.port, c.cmd)
				if plan[i] = abortTime(side, ports, cmds, i); plan[i] >= 0 {
					eng.Post(plan[i]-eng.Now(), abort)
				}
				return
			}
			// Hosts arm their timeouts before ringing the doorbell.
			if plan[i] >= 0 {
				eng.Post(plan[i]-eng.Now(), abort)
			}
			side.deliver(c.port, c.cmd)
		})
	}
	eng.Run()
	return tries, hits
}

// abortTime picks command i's abort time from its media-done time, or -1
// when that time is in a doorbell crossing, where an abort that reclaims a
// channel tail may legitimately act differently on the two sides.
func abortTime(side refSide, ports []refPortCfg, cmds []refCmd, i int) sim.Time {
	c := cmds[i]
	if c.abort == 0 {
		return -1
	}
	ts := c.at + ssd.DoorbellWire
	done, ok := side.done(ports[c.port].qid, c.cmd.CID)
	var t sim.Time
	switch {
	case !ok:
		t = ts + sim.Time(c.u*float64(ssd.RejectLatency))
	case c.abort == 1 && done-ts >= 2:
		t = ts + 1 + sim.Time(c.u*float64(done-ts-2))
	case c.abort == 3:
		t = done + 1 + sim.Time(c.u*float64(2*ports[c.port].irq))
	default:
		t = done
	}
	if inCrossing(cmds, t) {
		return -1
	}
	return t
}

// inCrossing reports whether t falls in a command's doorbell crossing,
// ends included: the device under test has serviced the command by then,
// and the reference has not yet.
func inCrossing(cmds []refCmd, t sim.Time) bool {
	for _, c := range cmds {
		if c.at <= t && t <= c.at+ssd.DoorbellWire {
			return true
		}
	}
	return false
}

func runScenario(t *testing.T, sc refScenario, reference bool, plan []sim.Time, learn bool) refTrace {
	t.Helper()
	ports, cmds := genStream(sc)
	eng := sim.NewEngine()
	var tr refTrace
	var side refSide
	dma := func(cmd nvme.Command) {
		tr.dmas = append(tr.dmas, fmt.Sprintf("%d prp %d", eng.Now(), cmd.PRP1))
	}
	notify := func(cp nvme.Completion) {
		// Inflight counts a command from its delivery on one side and
		// from its landing on the other, so it is not compared while one
		// crosses the wire.
		inflight := -1
		if !inCrossing(cmds, eng.Now()) {
			inflight = side.inflight()
		}
		tr.notes = append(tr.notes, fmt.Sprintf("%d cid %d sq %d status %#x inflight %d",
			eng.Now(), cp.CID, cp.SQID, cp.Status, inflight))
	}
	var backend ssd.Backend
	if sc.modeled {
		cfg := modeled.DefaultConfig(sc.prof)
		cfg.ChurnOverwrites = sc.churn
		backend = modeled.New(cfg, sc.prof, refBlocks, sc.seed)
	}
	var inj *fault.Injector
	if sc.rules != nil {
		inj = fault.NewInjector(sim.NewRand(sc.seed+100), sc.rules...)
	}
	if reference {
		d := newRefDevice(eng, sc.prof, sim.NewRand(sc.seed), dma)
		d.ns[1] = nvme.Namespace{ID: 1, Blocks: refBlocks}
		d.backend, d.inj = backend, inj
		var ps []*refPort
		for _, p := range ports {
			ps = append(ps, d.attach(p.qid, p.irq, notify))
		}
		side = refSide{
			deliver:  func(port int, cmd nvme.Command) { d.deliver(ps[port], cmd) },
			abort:    d.abort,
			inflight: d.inflight,
			stats:    func() ssd.Stats { return d.stats },
		}
	} else {
		d := ssd.New(eng, sc.prof, sim.NewRand(sc.seed), dma)
		d.AddNamespace(nvme.Namespace{ID: 1, Blocks: refBlocks})
		if backend != nil {
			d.SetBackend(backend)
		}
		if inj != nil {
			d.SetInjector(inj)
		}
		var ps []*ssd.Port
		for _, p := range ports {
			ps = append(ps, d.Attach(p.qid, p.irq, notify))
		}
		side = refSide{
			deliver:  func(port int, cmd nvme.Command) { d.Deliver(ps[port], cmd) },
			abort:    d.Abort,
			inflight: d.Inflight,
			stats:    d.Stats,
			done:     d.MediaDone,
		}
	}
	abort := side.abort
	side.abort = func(qid, cid uint16) bool {
		ok := abort(qid, cid)
		tr.aborts = append(tr.aborts, fmt.Sprintf("%d q %d cid %d %v", eng.Now(), qid, cid, ok))
		return ok
	}
	tr.tries, tr.hits = runStream(eng, side, ports, cmds, plan, learn)
	tr.stats, tr.inflight = side.stats(), side.inflight()
	if inj != nil {
		tr.injStats = inj.Stats()
	}
	return tr
}

func diffLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s %d: got %q, reference %q", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, reference %d", what, len(got), len(want))
	}
}

// TestOneEventDeviceMatchesReference drives randomized command streams
// through the device and through refDevice, the three-event device it
// replaced, and requires the host to see the same thing from both: every
// notify (time, CID, queue, status, and Inflight at that moment), every
// DMA in order, every Abort's answer, and the final Stats and Inflight.
// The streams cover both backends, three ports with different irq wires,
// multi-block, urgent and flush commands, bad NSIDs and LBA ranges,
// injected spikes, transient and UECC errors and drops, and aborts before,
// exactly at and after media done.
func TestOneEventDeviceMatchesReference(t *testing.T) {
	mix := []fault.Rule{
		{Kind: fault.Spike, Prob: 0.04, SpikeFactor: 3},
		{Kind: fault.Transient, Prob: 0.04},
		{Kind: fault.UECC, Prob: 0.03, Burst: 2},
		{Kind: fault.Drop, Prob: 0.03},
	}
	scenarios := []struct {
		name string
		sc   refScenario
	}{
		{"zssd", refScenario{prof: ssd.ZSSD}},
		{"zssd-faults", refScenario{prof: ssd.ZSSD, rules: mix}},
		{"optane-faults", refScenario{prof: ssd.OptaneSSD, rules: mix}},
		{"pmm-drops", refScenario{prof: ssd.OptaneDCPMM, rules: []fault.Rule{{Kind: fault.Drop, Prob: 0.1, Queue: 4}}}},
		{"modeled-faults", refScenario{prof: ssd.ZSSD, modeled: true, rules: mix}},
		{"modeled-aged", refScenario{prof: ssd.OptaneSSD, modeled: true, churn: 1, rules: mix}},
	}
	for _, s := range scenarios {
		for seed := uint64(1); seed <= 3; seed++ {
			sc := s.sc
			sc.seed = seed
			t.Run(fmt.Sprintf("%s/seed%d", s.name, seed), func(t *testing.T) {
				plan := make([]sim.Time, refCommands)
				learned := runScenario(t, sc, false, plan, true)
				got := runScenario(t, sc, false, plan, false)
				want := runScenario(t, sc, true, plan, false)
				// Arming the aborts before delivery moves no completion, so
				// the plan's aborts at media done land exactly on it.
				diffLines(t, "replayed notify", got.notes, learned.notes)
				diffLines(t, "notify", got.notes, want.notes)
				diffLines(t, "dma", got.dmas, want.dmas)
				diffLines(t, "abort", got.aborts, want.aborts)
				if got.stats != want.stats {
					t.Fatalf("stats:\n  got       %+v\n  reference %+v", got.stats, want.stats)
				}
				if got.injStats != want.injStats || got.inflight != want.inflight {
					t.Fatalf("injector %+v inflight %d, reference %+v inflight %d",
						got.injStats, got.inflight, want.injStats, want.inflight)
				}
				if got.tries != want.tries || got.hits != want.hits {
					t.Fatalf("aborts tried %v found %v, reference %v %v", got.tries, got.hits, want.tries, want.hits)
				}
				// Aborts before and exactly at media done find their
				// command; some after it come too late.
				if len(got.notes) < refCommands/2 || got.hits[1] == 0 || got.hits[2] == 0 || got.hits[3] == got.tries[3] {
					t.Fatalf("stream too thin: %d notifies, aborts tried %v found %v", len(got.notes), got.tries, got.hits)
				}
			})
		}
	}
}
