// Package ssd models ultra-low-latency NVMe SSDs. A device receives
// commands over the doorbell wire of an attached queue pair, services them
// on a set of internal channels (striped by LBA), applies write-induced read
// interference (reads behind flash-program operations get slower — the
// effect the paper cites for YCSB's lower gains), performs the DMA via a
// caller-supplied callback, and posts completions.
//
// Three profiles reproduce Figure 17's device times: Samsung Z-SSD
// (10.9 µs 4 KiB read), Intel Optane SSD (6.5 µs) and Optane DC PMM in
// App-direct mode used as storage (2.1 µs).
package ssd

import (
	"fmt"

	"hwdp/internal/fault"
	"hwdp/internal/nvme"
	"hwdp/internal/sim"
	"hwdp/internal/trace"
)

// Profile is a device latency/parallelism model.
type Profile struct {
	Name string
	// Read4K is the end-to-end device time for a 4 KiB read at queue
	// depth 1 (SQ doorbell write to CQ entry write, as measured in the
	// paper's methodology).
	Read4K sim.Time
	// Write4K is the device time for a 4 KiB write (buffered program).
	Write4K sim.Time
	// Channels is the internal parallelism: commands on different channels
	// overlap fully.
	Channels int
	// JitterFrac is the relative stddev of the service time.
	JitterFrac float64
	// WriteInterference is the fractional read-latency penalty per
	// outstanding write on the same channel.
	WriteInterference float64
}

// Device profiles used throughout the evaluation.
var (
	ZSSD = Profile{
		Name: "Z-SSD", Read4K: sim.Micro(10.9), Write4K: sim.Micro(9.0),
		Channels: 8, JitterFrac: 0.03, WriteInterference: 0.55,
	}
	OptaneSSD = Profile{
		Name: "Optane-SSD", Read4K: sim.Micro(6.5), Write4K: sim.Micro(6.0),
		Channels: 7, JitterFrac: 0.02, WriteInterference: 0.35,
	}
	OptaneDCPMM = Profile{
		Name: "Optane-DC-PMM", Read4K: sim.Micro(2.1), Write4K: sim.Micro(2.3),
		Channels: 6, JitterFrac: 0.01, WriteInterference: 0.20,
	}
)

// Backend is a pluggable media model behind the Device's queue/transport
// machinery. The default (nil) backend is the latency-profile model built
// into service: striped channels, jittered service times and
// write-interference. A non-nil backend (ssd/modeled's FTL + GC + plane
// model) takes over media timing entirely: the Device still owns queue
// attachment, fault injection, DMA, aborts and completion delivery, and
// asks the backend only when each command's media work starts and ends.
//
// Backends are plain virtual-time bookkeeping: Admit is called in event
// order on the device's engine, must not schedule events, and must be
// deterministic for a fixed construction seed — that is what keeps modeled
// runs byte-identical for a fixed seed.
type Backend interface {
	// Admit commits the media schedule for one command at submission time
	// and returns when its device-internal queueing ends and when its
	// media work (including any data transfer) completes. spike is the
	// fault injector's service-time multiplier (1 when clean).
	Admit(now sim.Time, cmd nvme.Command, spike float64) Admission
}

// Admission is a Backend's scheduling decision for one command.
type Admission struct {
	// Start is when device-internal queueing (plane waits, buffer stalls,
	// mapping fetches) ends and media service begins.
	Start sim.Time
	// Done is the media completion time: the Device runs DMA and posts
	// the completion then.
	Done sim.Time
	// Spans carries the backend's per-phase trace attribution for traced
	// commands (nil when the command has no trace context). The slice is
	// only valid until the next Admit call — the Device copies it into
	// the trace immediately.
	Spans []BackendSpan
}

// BackendSpan is one labeled interval of a command's device-internal life,
// recorded into the miss trace under trace.LayerSSD.
type BackendSpan struct {
	Label      string
	Start, End sim.Time
}

// DMAFunc performs the data transfer for a command once the media access
// completes: for reads it deposits the block into the frame addressed by
// PRP1. It runs when the completion reaches the host, in virtual time
// order.
type DMAFunc func(cmd nvme.Command)

// NotifyFunc delivers a completion to the host side of a queue pair: an
// interrupt for OS-managed queues, a memory-write snoop for the SMU queue.
type NotifyFunc func(cp nvme.Completion)

// Port is one queue pair's attachment to a device, the handle Attach
// returns: the host delivers commands through it, and it holds the
// device-side state of the pair's in-flight commands by CID.
type Port struct {
	dev    *Device
	qp     *nvme.QueuePair
	notify NotifyFunc
	// irq is the completion wire latency: CQ write plus interrupt or
	// snoop delivery.
	irq      sim.Time
	inflight nvme.CIDTable[*flight]
}

type channel struct {
	freeAt            sim.Time
	outstandingWrites int
}

// Stats aggregates device-side counters. Latency accounting is split into
// device-internal queueing (QueueWaitSum: channel/plane waits, buffer
// stalls, GC stalls — time a command spends admitted but not being
// serviced) and media occupancy (MediaBusySum: the service time itself),
// so the profile and modeled backends report comparable breakdowns.
// ReadLatencySum remains the end-to-end sum (queueing + media) for reads.
type Stats struct {
	Reads, Writes, Flushes uint64
	ReadLatencySum         sim.Time
	QueueWaitSum           sim.Time
	MediaBusySum           sim.Time
	// Fault-injection outcomes, counted at the device boundary.
	InjTransient uint64 // completions forced to a retryable status
	InjUECC      uint64 // completions forced to an unrecoverable media status
	InjDropped   uint64 // commands lost inside the device (no completion)
	InjSpikes    uint64 // commands with multiplied service time
	Aborts       uint64 // host aborts that canceled an in-flight command
}

// flight is the device-side state of one scheduled command: the completion
// event plus everything the completion (or an abort) needs to run the
// channel bookkeeping exactly once. Flights are pooled and recycled, so a
// steady read stream allocates no per-command device state.
type flight struct {
	ev      *sim.Event
	at      *Port
	cmd     nvme.Command
	dec     fault.Decision
	ch      *channel
	isWrite bool
	done    sim.Time // scheduled media-completion time
}

// wireMsg is one host<->device transport crossing: a command riding the
// doorbell wire toward the device, or a completion riding the IRQ/snoop
// wire home. Messages are pooled so the steady-state miss path stays
// allocation-free.
type wireMsg struct {
	at     *Port
	cmd    nvme.Command
	status uint16
}

// Device is one simulated NVMe SSD.
type Device struct {
	eng       *sim.Engine
	prof      Profile
	rng       *sim.Rand
	ns        []nvme.Namespace // by NSID; a zero ID marks an unregistered NSID
	ports     []*Port          // in attach order
	chans     []channel
	dma       DMAFunc
	backend   Backend
	inj       *fault.Injector
	pool      []*flight
	msgPool   []*wireMsg
	finishFn  func(any) // pre-bound media-completion callback
	serviceFn func(any) // pre-bound doorbell-wire delivery callback
	deliverFn func(any) // pre-bound completion-wire delivery callback
	stats     Stats
}

// New creates a device. dma may be nil (no data movement, timing only).
func New(eng *sim.Engine, prof Profile, rng *sim.Rand, dma DMAFunc) *Device {
	if prof.Channels <= 0 {
		panic("ssd: profile needs at least one channel")
	}
	d := &Device{
		eng:   eng,
		prof:  prof,
		rng:   rng,
		chans: make([]channel, prof.Channels),
		dma:   dma,
		ports: make([]*Port, 0, 8), // a device serves a few queues
	}
	d.finishFn = func(a any) { d.finish(a.(*flight)) }
	d.serviceFn = func(a any) {
		m := a.(*wireMsg)
		at, cmd := m.at, m.cmd
		d.putMsg(m)
		d.service(at, cmd)
	}
	d.deliverFn = func(a any) { d.deliverCompletion(a.(*wireMsg)) }
	return d
}

// getMsg takes a pooled transport message.
//
//hwdp:pool acquire wiremsg
func (d *Device) getMsg() *wireMsg {
	if n := len(d.msgPool); n > 0 {
		m := d.msgPool[n-1]
		d.msgPool[n-1] = nil
		d.msgPool = d.msgPool[:n-1]
		return m
	}
	return &wireMsg{}
}

// putMsg clears a pooled message and returns it to the pool.
//
//hwdp:pool release wiremsg
func (d *Device) putMsg(m *wireMsg) {
	*m = wireMsg{}
	d.msgPool = append(d.msgPool, m)
}

// getFlight takes a pooled flight record.
//
//hwdp:pool acquire flight
func (d *Device) getFlight() *flight {
	if n := len(d.pool); n > 0 {
		fl := d.pool[n-1]
		d.pool[n-1] = nil
		d.pool = d.pool[:n-1]
		return fl
	}
	return &flight{}
}

// putFlight clears a flight and returns it to the pool.
//
//hwdp:pool release flight
func (d *Device) putFlight(fl *flight) {
	*fl = flight{}
	d.pool = append(d.pool, fl)
}

// SetBackend swaps the media model (see Backend). It must be called
// before any traffic reaches the device; nil restores the built-in
// latency-profile model.
func (d *Device) SetBackend(b Backend) { d.backend = b }

// Backend returns the attached media backend (nil for the built-in
// latency-profile model).
func (d *Device) Backend() Backend { return d.backend }

// SetInjector attaches a fault injector consulted once per media command.
// The injector must own a PRNG stream forked from the run seed so that
// enabling faults never perturbs the device's own jitter stream.
func (d *Device) SetInjector(in *fault.Injector) { d.inj = in }

// Injector returns the attached injector (nil when fault-free).
func (d *Device) Injector() *fault.Injector { return d.inj }

// Profile returns the device's latency profile.
func (d *Device) Profile() Profile { return d.prof }

// Stats returns a copy of the device counters.
func (d *Device) Stats() Stats { return d.stats }

// MaxNSID is the largest namespace ID a device accepts. Namespace IDs
// index the device's namespace table, so they are small and dense, as on
// real controllers.
const MaxNSID = 1024

// AddNamespace registers a namespace. Its ID must be in [1, MaxNSID]
// (NSID 0 is not a valid namespace in NVMe).
func (d *Device) AddNamespace(ns nvme.Namespace) {
	if ns.ID == 0 || ns.ID > MaxNSID {
		panic(fmt.Sprintf("ssd: namespace ID %d outside [1, %d]", ns.ID, MaxNSID))
	}
	if int(ns.ID) >= len(d.ns) {
		d.ns = append(d.ns, make([]nvme.Namespace, int(ns.ID)+1-len(d.ns))...)
	}
	d.ns[ns.ID] = ns
}

// namespace returns the registered namespace nsid.
//
//hwdp:hotpath
func (d *Device) namespace(nsid uint32) (nvme.Namespace, bool) {
	if nsid == 0 || uint64(nsid) >= uint64(len(d.ns)) || d.ns[nsid].ID != nsid {
		return nvme.Namespace{}, false
	}
	return d.ns[nsid], true
}

// Attach registers a queue pair and returns its port: the host submits
// commands with Deliver (each crossing the doorbell wire as an event), and
// completions cross back after irq — the CQ write plus interrupt (OS
// queues) or memory-snoop handling (the SMU queue) — with the DMA, the CQ
// post and notify all running at delivery.
func (d *Device) Attach(qp *nvme.QueuePair, irq sim.Time, notify NotifyFunc) *Port {
	if d.port(qp.ID) != nil {
		panic(fmt.Sprintf("ssd: queue %d attached twice", qp.ID))
	}
	if irq < 0 {
		irq = 0
	}
	p := &Port{dev: d, qp: qp, notify: notify, irq: irq}
	d.ports = append(d.ports, p)
	return p
}

// port returns the port of queue qid, or nil when no such queue is
// attached.
func (d *Device) port(qid uint16) *Port {
	for _, p := range d.ports {
		if p.qp.ID == qid {
			return p
		}
	}
	return nil
}

// RejectLatency is the device-side handling time of a command rejected
// without touching media (bad namespace or LBA range).
const RejectLatency = 500 * sim.Nanosecond

// Deliver carries one host-submitted command across the doorbell wire to
// the device through the queue's port: service begins wire later. The host
// side pops its own SQ at ring time — the rings are wholly host-owned, and
// the wire message carries the command.
//
//hwdp:hotpath
func (d *Device) Deliver(at *Port, cmd nvme.Command, wire sim.Time) {
	if at == nil || at.dev != d {
		panic("ssd: delivery through a port not attached to this device")
	}
	m := d.getMsg()
	m.at, m.cmd = at, cmd
	d.eng.PostArg(wire, d.serviceFn, m)
}

//hwdp:hotpath
func (d *Device) service(at *Port, cmd nvme.Command) {
	now := d.eng.Now()
	status := nvme.StatusSuccess
	if ns, ok := d.namespace(cmd.NSID); !ok {
		status = nvme.StatusInvalidNS
	} else if cmd.Opcode != nvme.OpFlush && cmd.SLBA+uint64(cmd.Blocks()) > ns.Blocks {
		status = nvme.StatusLBARange
	}
	if status != nvme.StatusSuccess {
		// Errors complete quickly without touching media.
		cmd.Trace.Mark(trace.LayerSSD, "rejected", now)
		//hwdp:ignore all command rejections only happen on malformed/out-of-range submissions, off the steady-state path
		d.eng.Post(RejectLatency, func() { d.complete(at, cmd, status) })
		return
	}

	var ch *channel
	var start, done sim.Time
	var dec fault.Decision
	if d.backend != nil {
		// Media timing is the backend's: the profile's channels, jitter
		// and write-interference are all subsumed by its own resource
		// model. Fault spikes multiply the backend's service times.
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
			dec = d.inj.Decide(cmd.Opcode == nvme.OpRead, cmd.SLBA, at.qp.ID)
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
		if cmd.Trace != nil {
			// The backend attributes its own phases (mapping fetches,
			// plane waits, GC stalls, media, bus transfer).
			for _, sp := range adm.Spans {
				cmd.Trace.AddSpan(trace.LayerSSD, sp.Label, sp.Start, sp.End)
			}
		}
	} else {
		ch = &d.chans[int(cmd.SLBA)%len(d.chans)]
		var svc sim.Time
		switch cmd.Opcode {
		case nvme.OpRead:
			d.stats.Reads++
			svc = d.jitter(d.prof.Read4K) * sim.Time(cmd.Blocks())
			if !cmd.Urgent && ch.outstandingWrites > 0 {
				// Reads queued behind program operations on the same channel.
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
			dec = d.inj.Decide(cmd.Opcode == nvme.OpRead, cmd.SLBA, at.qp.ID)
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
		if cmd.Trace != nil {
			// Spans are recorded at schedule time (start and end are both
			// known): channel queue wait, then media occupancy.
			if start > now {
				cmd.Trace.AddSpan(trace.LayerSSD, "channel-queue-wait", now, start)
			}
			//hwdp:ignore hotalloc label built only for traced commands (single-miss experiments), never in steady state
			cmd.Trace.AddSpan(trace.LayerSSD, "media "+cmd.Opcode.String(), start, done)
		}
	}

	fl := d.getFlight()
	if !at.inflight.Put(cmd.CID, fl) {
		panic(fmt.Sprintf("ssd: duplicate in-flight CID %d on queue %d", cmd.CID, at.qp.ID))
	}
	fl.at, fl.cmd, fl.dec, fl.ch, fl.done = at, cmd, dec, ch, done
	fl.isWrite = cmd.Opcode == nvme.OpWrite
	// Pooled handle: finish recycles fl (dropping fl.ev) when the event
	// fires, and Abort drops it right after Cancel, so the handle never
	// outlives the event.
	fl.ev = d.eng.AtArgPooled(done, d.finishFn, fl)
}

// outcomeStatus maps a fault decision and opcode to the completion status
// the host will see; deliverable is false when the command dies inside the
// device without a completion (fault.Drop).
func outcomeStatus(kind fault.Kind, op nvme.Opcode) (status uint16, deliverable bool) {
	//hwdp:exhaustive
	switch kind {
	case fault.Drop:
		return 0, false
	case fault.Transient:
		return nvme.StatusCmdInterrupted, true
	case fault.UECC:
		if op == nvme.OpRead {
			return nvme.StatusUncorrectable, true
		}
		return nvme.StatusWriteFault, true
	case fault.None, fault.Spike:
		// A spike stretches service latency but the command completes
		// cleanly; None is no fault at all.
	}
	return nvme.StatusSuccess, true
}

// finish runs at a command's media-completion time: channel bookkeeping,
// injected-fault resolution, DMA, and the completion post.
//
//hwdp:hotpath
func (d *Device) finish(fl *flight) {
	fl.at.inflight.Take(fl.cmd.CID)
	if fl.isWrite && fl.ch != nil {
		// Backend flights carry no channel: interference lives in the
		// backend's own plane timelines.
		fl.ch.outstandingWrites--
	}
	at, cmd, done := fl.at, fl.cmd, fl.done
	kind := fl.dec.Kind
	d.putFlight(fl)
	//hwdp:exhaustive
	switch kind {
	case fault.Drop:
		// The command is lost inside the device: no DMA, no completion.
		// Only a host-side timeout (followed by Abort) recovers.
		d.stats.InjDropped++
		cmd.Trace.Mark(trace.LayerSSD, "fault-dropped", done)
	case fault.Transient:
		d.stats.InjTransient++
		cmd.Trace.Mark(trace.LayerSSD, "fault-transient", done)
	case fault.UECC:
		d.stats.InjUECC++
		cmd.Trace.Mark(trace.LayerSSD, "fault-uecc", done)
	case fault.None, fault.Spike:
		// Clean (or merely slowed) completion: nothing to account.
	}
	if status, deliverable := outcomeStatus(kind, cmd.Opcode); deliverable {
		d.complete(at, cmd, status)
	}
}

// Abort cancels an in-flight command the host has given up on (after a
// completion timeout). It returns true when the command was still pending
// and is now guaranteed never to DMA or complete; false means the command
// already finished (its completion and any DMA have already happened) or
// was never seen, and the host must treat the late completion, if any, as
// stale. Abort mirrors the NVMe admin Abort command but resolves instantly:
// the simulated window between "host decides to abort" and "device acks"
// folds into the host's own timeout delay.
func (d *Device) Abort(qid, cid uint16) bool {
	at := d.port(qid)
	if at == nil {
		return false
	}
	fl, ok := at.inflight.Take(cid)
	if !ok {
		return false
	}
	fl.ev.Cancel()
	fl.ev = nil
	if fl.ch != nil {
		if fl.isWrite {
			fl.ch.outstandingWrites--
		}
		// An aborted command stops occupying its channel. Only the channel
		// tail can be reclaimed: once a later command queued behind this
		// one, the media time is already committed. (Backend flights have
		// no channel; the backend's timelines are already committed, which
		// matches the same-rule conservatism.)
		if fl.ch.freeAt == fl.done {
			if now := d.eng.Now(); now < fl.ch.freeAt {
				fl.ch.freeAt = now
			}
		}
	}
	fl.cmd.Trace.Mark(trace.LayerSSD, "aborted", d.eng.Now())
	d.putFlight(fl)
	d.stats.Aborts++
	return true
}

// Inflight returns the number of commands scheduled on media that have not
// yet completed or been aborted, across all queues (invariant-checking
// hook for tests).
func (d *Device) Inflight() int {
	n := 0
	for _, p := range d.ports {
		n += p.inflight.Len()
	}
	return n
}

// complete puts a completion on the port's irq/snoop wire.
func (d *Device) complete(at *Port, cmd nvme.Command, status uint16) {
	m := d.getMsg()
	m.at, m.cmd, m.status = at, cmd, status
	d.eng.PostArg(at.irq, d.deliverFn, m)
}

// deliverCompletion runs when a completion finishes crossing the irq/snoop
// wire: DMA (successful commands only), CQ post, then host notification.
//
//hwdp:hotpath
func (d *Device) deliverCompletion(m *wireMsg) {
	at, cmd, status := m.at, m.cmd, m.status
	d.putMsg(m)
	if status == nvme.StatusSuccess && d.dma != nil {
		d.dma(cmd)
	}
	at.qp.PostCompletion(nvme.Completion{CID: cmd.CID, Status: status})
	if at.notify != nil {
		at.notify(nvme.Completion{CID: cmd.CID, SQID: at.qp.ID, Status: status})
	}
}

func (d *Device) jitter(base sim.Time) sim.Time {
	if d.prof.JitterFrac == 0 || d.rng == nil {
		return base
	}
	v := d.rng.Norm(float64(base), float64(base)*d.prof.JitterFrac)
	min := float64(base) * 0.7
	if v < min {
		v = min
	}
	return sim.Time(v)
}
