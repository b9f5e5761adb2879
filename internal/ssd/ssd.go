// Package ssd models ultra-low-latency NVMe SSDs. A device receives
// commands over the doorbell wire of an attached queue, services them
// on a set of internal channels (striped by LBA), applies write-induced read
// interference (reads behind flash-program operations get slower — the
// effect the paper cites for YCSB's lower gains), performs the DMA via a
// caller-supplied callback, and hands completions back to the host.
//
// A command costs one engine event. Every host rings the doorbell over the
// same wire (DoorbellWire), so commands reach the device in the order they
// are delivered, and nothing else can act on the device while one crosses
// the wire. Deliver therefore services the command at once, for the time
// it lands: it commits the channel (or backend) schedule, draws the jitter
// and the injector's decision, and posts one completion event at media done
// plus the port's irq wire, which runs the DMA and the host's notify. Tie
// rule: that event takes its engine sequence number at delivery, so among
// events due at the same picosecond it fires before those scheduled after
// the command was delivered (a model that posted the completion at media
// done ordered it after them).
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
// PRP1. It runs when the completion reaches the host, just before notify.
type DMAFunc func(cmd nvme.Command)

// NotifyFunc delivers a completion to the host side of a queue: an
// interrupt for OS-managed queues, a memory-write snoop for the SMU queue.
type NotifyFunc func(cp nvme.Completion)

// Port is one queue's attachment to a device, the handle Attach returns:
// the host delivers commands through it, and it holds the device-side
// state of the queue's in-flight commands by CID.
type Port struct {
	dev    *Device
	qid    uint16
	notify NotifyFunc
	// irq is the completion wire latency: CQ write plus interrupt or
	// snoop delivery.
	irq      sim.Time
	inflight nvme.CIDTable[*flight]
}

// channel is one profile-model channel: when its media is next free, and
// the writes serviced on it whose completion has not fired yet.
type channel struct {
	freeAt sim.Time
	writes *flight // head of the list linked through flight.prevW/nextW
}

// writesAfter counts the channel's writes whose media work ends after ts:
// the writes still programming when a read lands at ts. A write that ends
// exactly at ts was serviced at least 0.7×Write4K earlier, so it no longer
// counts, as it would not had its media-done been an event of its own.
func (c *channel) writesAfter(ts sim.Time) int {
	n := 0
	for w := c.writes; w != nil; w = w.nextW {
		if w.done > ts {
			n++
		}
	}
	return n
}

// linkWrite adds a serviced write to the channel's list.
func (c *channel) linkWrite(fl *flight) {
	fl.nextW = c.writes
	if c.writes != nil {
		c.writes.prevW = fl
	}
	c.writes = fl
}

// unlinkWrite removes a write from the channel's list when it completes or
// is aborted.
func (c *channel) unlinkWrite(fl *flight) {
	if fl.prevW != nil {
		fl.prevW.nextW = fl.nextW
	} else {
		c.writes = fl.nextW
	}
	if fl.nextW != nil {
		fl.nextW.prevW = fl.prevW
	}
	fl.prevW, fl.nextW = nil, nil
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

// flight is the device-side state of one delivered command, from Deliver
// to its completion event: everything the completion (or an abort) needs
// to run the bookkeeping exactly once. Flights are pooled and recycled, so
// a steady read stream allocates no per-command device state.
type flight struct {
	ev   *sim.Event // the completion event (nil for a rejected command)
	at   *Port
	cmd  nvme.Command
	kind fault.Kind // the injector's decision
	// status is a rejected command's completion status; a command that
	// reached media carries StatusSuccess here and takes its status from
	// kind when it completes.
	status uint16
	ch     *channel // the profile channel; nil for backend and rejected commands
	done   sim.Time // media completion time
	// prevW and nextW link a write into ch.writes.
	prevW, nextW *flight
}

// Device is one simulated NVMe SSD.
type Device struct {
	eng        *sim.Engine
	prof       Profile
	rng        *sim.Rand
	ns         []nvme.Namespace // by NSID; a zero ID marks an unregistered NSID
	ports      []*Port          // in attach order
	chans      []channel
	dma        DMAFunc
	backend    Backend
	inj        *fault.Injector
	flights    sim.Pool[flight]
	completeFn func(any) // pre-bound completion-event callback
	stats      Stats
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
	d.completeFn = func(a any) { d.complete(a.(*flight)) }
	return d
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

// Attach registers queue qid and returns its port: the host submits
// commands with Deliver, and completions cross back after irq — the CQ
// write plus interrupt (OS queues) or memory-snoop handling (the SMU
// queue) — with the DMA and notify both running when they arrive.
func (d *Device) Attach(qid uint16, irq sim.Time, notify NotifyFunc) *Port {
	if d.port(qid) != nil {
		panic(fmt.Sprintf("ssd: queue %d attached twice", qid))
	}
	if irq < 0 {
		irq = 0
	}
	p := &Port{dev: d, qid: qid, notify: notify, irq: irq}
	d.ports = append(d.ports, p)
	return p
}

// port returns the port of queue qid, or nil when no such queue is
// attached.
func (d *Device) port(qid uint16) *Port {
	for _, p := range d.ports {
		if p.qid == qid {
			return p
		}
	}
	return nil
}

// RejectLatency is the device-side handling time of a command rejected
// without touching media (bad namespace or LBA range).
const RejectLatency = 500 * sim.Nanosecond

// DoorbellWire is the host-to-device latency of a submission-queue
// doorbell write (a posted MMIO write over PCIe), the 1.60 ns of
// Fig. 11(b). The OS block layer and the SMU ring the doorbell over the
// same wire, so a command lands on the device DoorbellWire after Deliver.
const DoorbellWire = 1600 * sim.Picosecond

// Deliver rings the doorbell of the queue behind port at with one command.
// The device services it at once, for the time it lands (Now plus
// DoorbellWire): no other command can land first, since every command
// crosses the same wire, and nothing else acts on the device in between.
// The command's one completion event is posted here.
//
//hwdp:hotpath
func (d *Device) Deliver(at *Port, cmd nvme.Command) {
	if at == nil || at.dev != d {
		panic("ssd: delivery through a port not attached to this device")
	}
	ts := d.eng.Now() + DoorbellWire
	status := nvme.StatusSuccess
	if ns, ok := d.namespace(cmd.NSID); !ok {
		status = nvme.StatusInvalidNS
	} else if cmd.Opcode != nvme.OpFlush && cmd.SLBA+uint64(cmd.Blocks()) > ns.Blocks {
		status = nvme.StatusLBARange
	}
	fl := d.flights.Get()
	fl.at, fl.cmd = at, cmd
	if status != nvme.StatusSuccess {
		// Errors complete quickly without touching media; the command
		// never enters the in-flight table, so Abort cannot find it.
		cmd.Trace.Mark(trace.LayerSSD, "rejected", ts)
		fl.status = status
		d.eng.PostArg(DoorbellWire+RejectLatency+at.irq, d.completeFn, fl)
		return
	}
	if !at.inflight.Put(cmd.CID, fl) {
		panic(fmt.Sprintf("ssd: duplicate in-flight CID %d on queue %d", cmd.CID, at.qid))
	}
	d.service(fl, ts)
	due := fl.done + at.irq
	if fl.kind == fault.Drop {
		// The command dies inside the device: its event at media done
		// only retires it.
		due = fl.done
	}
	// Pooled handle: complete recycles fl (dropping fl.ev) when the event
	// fires, and Abort drops it right after Cancel, so the handle never
	// outlives the event.
	fl.ev = d.eng.AtArgPooled(due, d.completeFn, fl)
}

// service schedules the media work of a command that lands at now: it sets
// fl.ch, fl.kind and fl.done and counts the command.
//
//hwdp:hotpath
func (d *Device) service(fl *flight, now sim.Time) {
	cmd := fl.cmd
	switch cmd.Opcode {
	case nvme.OpRead:
		d.stats.Reads++
	case nvme.OpWrite:
		d.stats.Writes++
	case nvme.OpFlush:
		d.stats.Flushes++
	}
	var start, done sim.Time
	var dec fault.Decision
	if d.backend != nil {
		// Media timing is the backend's: the profile's channels, jitter
		// and write-interference are all subsumed by its own resource
		// model. Fault spikes multiply the backend's service times.
		spike := 1.0
		if d.inj != nil {
			dec = d.inj.Decide(cmd.Opcode == nvme.OpRead, cmd.SLBA, fl.at.qid)
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
		fl.kind, fl.done = dec.Kind, done
		return
	}

	ch := &d.chans[int(cmd.SLBA)%len(d.chans)]
	var svc sim.Time
	switch cmd.Opcode {
	case nvme.OpRead:
		svc = d.jitter(d.prof.Read4K) * sim.Time(cmd.Blocks())
		if !cmd.Urgent {
			if n := ch.writesAfter(now); n > 0 {
				// Reads queued behind program operations on the same channel.
				svc += sim.Time(float64(d.prof.Read4K) * d.prof.WriteInterference * float64(n))
			}
		}
	case nvme.OpWrite:
		svc = d.jitter(d.prof.Write4K) * sim.Time(cmd.Blocks())
	case nvme.OpFlush:
		svc = d.jitter(d.prof.Write4K / 2)
	}

	if d.inj != nil {
		dec = d.inj.Decide(cmd.Opcode == nvme.OpRead, cmd.SLBA, fl.at.qid)
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
	fl.ch, fl.kind, fl.done = ch, dec.Kind, done
	if cmd.Opcode == nvme.OpWrite {
		ch.linkWrite(fl)
	}
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

// complete is a command's one completion event: at media done plus the
// port's irq wire it retires the command, resolves its injected fault, and
// runs the DMA (successful commands only) and the host's notify. A dropped
// command's event fires at media done and delivers nothing; a rejected
// command's carries its rejection status.
//
//hwdp:hotpath
func (d *Device) complete(fl *flight) {
	at, cmd, status := fl.at, fl.cmd, fl.status
	if status == nvme.StatusSuccess {
		at.inflight.Take(cmd.CID)
		if fl.ch != nil && cmd.Opcode == nvme.OpWrite {
			// Backend flights carry no channel: interference lives in the
			// backend's own plane timelines.
			fl.ch.unlinkWrite(fl)
		}
		kind, done := fl.kind, fl.done
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
		var deliverable bool
		if status, deliverable = outcomeStatus(kind, cmd.Opcode); !deliverable {
			*fl = flight{}
			d.flights.Put(fl)
			return
		}
	}
	*fl = flight{}
	d.flights.Put(fl)
	if status == nvme.StatusSuccess && d.dma != nil {
		d.dma(cmd)
	}
	if at.notify != nil {
		at.notify(nvme.Completion{CID: cmd.CID, SQID: at.qid, Status: status})
	}
}

// Abort cancels an in-flight command the host has given up on (after a
// completion timeout). A command is in flight from Deliver until its media
// work ends (Now <= done). Abort returns true when the command was in
// flight and is now guaranteed never to DMA or complete; false means the
// command's media work is over (its completion, if any, still arrives) or
// the command was never seen, and the host must treat a late completion
// as stale. Abort mirrors the NVMe admin Abort command but resolves
// instantly: the simulated window between "host decides to abort" and
// "device acks" folds into the host's own timeout delay.
func (d *Device) Abort(qid, cid uint16) bool {
	at := d.port(qid)
	if at == nil {
		return false
	}
	now := d.eng.Now()
	fl, ok := at.inflight.Get(cid)
	if !ok || now > fl.done {
		return false
	}
	at.inflight.Take(cid)
	fl.ev.Cancel()
	fl.ev = nil
	if fl.ch != nil {
		if fl.cmd.Opcode == nvme.OpWrite {
			fl.ch.unlinkWrite(fl)
		}
		// An aborted command stops occupying its channel. Only the channel
		// tail can be reclaimed: once a later command queued behind this
		// one, the media time is already committed. (Backend flights have
		// no channel; the backend's timelines are already committed, which
		// matches the same-rule conservatism.)
		if fl.ch.freeAt == fl.done && now < fl.ch.freeAt {
			fl.ch.freeAt = now
		}
	}
	fl.cmd.Trace.Mark(trace.LayerSSD, "aborted", now)
	*fl = flight{}
	d.flights.Put(fl)
	d.stats.Aborts++
	return true
}

// Inflight returns the number of commands, across all queues, whose media
// work has not yet ended and that were not aborted: the commands Abort
// would find (invariant-checking hook for tests).
func (d *Device) Inflight() int {
	now := d.eng.Now()
	n := 0
	for _, p := range d.ports {
		p.inflight.Each(func(_ uint16, fl *flight) {
			if now <= fl.done {
				n++
			}
		})
	}
	return n
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
