// Package modeled is the full-resource SSD media backend: a page-mapping
// FTL with a bounded mapping cache, greedy / cost-benefit garbage
// collection over an over-provisioned flash array, channel/way/plane
// parallelism with per-plane busy timelines and per-channel transfer
// buses, and a small embedded DRAM write buffer.
//
// It plugs into ssd.Device behind the ssd.Backend seam: the Device keeps
// owning queues, fault injection, DMA and completion transport, while
// Admit here decides when each command's media work starts and ends. The
// latency-profile backend answers "how fast is this device when fresh";
// this one answers the questions a fresh drive cannot — steady-state
// write amplification, GC-induced tail spikes, and mapping-cache misses —
// the effects Amber/SimpleSSD-grade models exist to expose.
//
// Everything is plain virtual-time bookkeeping evaluated at admission
// time in event order: no internal events, no goroutines, no global
// state, no map iteration. Same seed and admission sequence ⇒ identical
// timings and Stats, so fixed-seed runs are byte-identical (the
// sharedstate/simdeterminism analyzers police this package like the rest
// of the device stack).
package modeled

import (
	"fmt"

	"hwdp/internal/nvme"
	"hwdp/internal/sim"
	"hwdp/internal/ssd"
)

// Policy selects the garbage-collection victim policy.
type Policy int

// Victim-selection policies.
const (
	// Greedy picks the full block with the fewest valid pages.
	Greedy Policy = iota
	// CostBenefit weighs reclaimable space against data age
	// ((1-u)/(1+u) · age, the classic LFS cleaner score): cold blocks
	// with moderate staleness beat hot blocks that would soon re-dirty.
	CostBenefit
)

// String names the policy for figures and manifests.
func (p Policy) String() string {
	if p == CostBenefit {
		return "cost-benefit"
	}
	return "greedy"
}

// Config sizes and times the modeled device. Zero fields are filled by
// New from the device's latency profile (see withDefaults); the zero
// value therefore models "the configured profile's class of device, with
// flash internals".
type Config struct {
	// Channels, WaysPerChannel and PlanesPerWay set the parallelism
	// tree; the unit of media concurrency is the plane (one array
	// operation at a time), and planes are striped round-robin across
	// channels so adjacent writes overlap.
	Channels       int
	WaysPerChannel int
	PlanesPerWay   int
	// PagesPerBlock is the erase-block size in 4 KiB pages.
	PagesPerBlock int
	// OPFrac is the over-provisioned fraction of raw capacity invisible
	// to the host (spare blocks GC feeds on).
	OPFrac float64
	// ReadLatency is the flash array read time (tR).
	ReadLatency sim.Time
	// ProgramLatency is the page program time (tPROG).
	ProgramLatency sim.Time
	// EraseLatency is the block erase time (tBERS).
	EraseLatency sim.Time
	// XferLatency is the 4 KiB channel transfer time.
	XferLatency sim.Time
	// BufWriteLatency is the host-visible latency of a buffered write
	// (data lands in device DRAM; the program completes in background).
	BufWriteLatency sim.Time
	// FlushLatency is the host-visible tail of a flush after every
	// outstanding buffered program has hit flash.
	FlushLatency sim.Time
	// BufEntries is the DRAM write-buffer depth in pages: a write whose
	// arrival finds all slots occupied by in-flight programs stalls.
	BufEntries int
	// MapEntries bounds the FTL mapping cache (DFTL-style: the full
	// page-level map lives on flash, a bounded cache in device DRAM).
	MapEntries int
	// MapMissPenalty is the cost of fetching a mapping entry on a cache
	// miss (a translation-page read).
	MapMissPenalty sim.Time
	// MapEvictPenalty is the extra cost when the evicted entry is dirty
	// (the translation page must be rewritten).
	MapEvictPenalty sim.Time
	// GCPolicy selects the victim policy.
	GCPolicy Policy
	// GCLowBlocks / GCHighBlocks are the global free-block watermarks:
	// allocation that would leave at most GCLowBlocks free blocks runs
	// the collector until GCHighBlocks are free.
	GCLowBlocks  int
	GCHighBlocks int
	// FillFrac preconditions the drive: the fraction of host LBAs
	// written (sequentially) before the run starts. 1 models a drive
	// shipped with the dataset in place; figures default to 1 so every
	// read hits flash. Negative means "leave the drive empty".
	FillFrac float64
	// ChurnOverwrites preconditions steady state: after the fill, this
	// multiple of the filled capacity is overwritten at random (fixed
	// seed), scattering valid pages and consuming spare blocks the way
	// months of service would. 0 keeps the drive fresh.
	ChurnOverwrites float64
}

// DefaultConfig derives a modeled configuration from a latency profile:
// the profile's end-to-end 4 KiB times anchor the flash timings so a
// fresh, idle modeled device lands near the profile's latencies, while
// parallelism and GC parameters take flash-typical values.
func DefaultConfig(prof ssd.Profile) Config {
	var c Config
	c.fill(prof)
	return c
}

// fill populates zero fields from the profile (see DefaultConfig).
func (c *Config) fill(prof ssd.Profile) {
	if c.Channels == 0 {
		c.Channels = prof.Channels
	}
	if c.Channels <= 0 {
		c.Channels = 8
	}
	if c.WaysPerChannel == 0 {
		c.WaysPerChannel = 2
	}
	if c.PlanesPerWay == 0 {
		c.PlanesPerWay = 2
	}
	if c.PagesPerBlock == 0 {
		c.PagesPerBlock = 64
	}
	if c.OPFrac == 0 {
		c.OPFrac = 0.12
	}
	if c.XferLatency == 0 {
		c.XferLatency = 800 * sim.Nanosecond
	}
	if c.ReadLatency == 0 {
		c.ReadLatency = prof.Read4K - c.XferLatency
		if c.ReadLatency < sim.Microsecond {
			c.ReadLatency = sim.Microsecond
		}
	}
	if c.ProgramLatency == 0 {
		c.ProgramLatency = 5 * prof.Write4K
	}
	if c.EraseLatency == 0 {
		c.EraseLatency = sim.Milli(1)
	}
	if c.BufWriteLatency == 0 {
		c.BufWriteLatency = prof.Write4K
	}
	if c.FlushLatency == 0 {
		c.FlushLatency = prof.Write4K / 2
	}
	if c.BufEntries == 0 {
		c.BufEntries = 64
	}
	if c.MapEntries == 0 {
		c.MapEntries = 4096
	}
	if c.MapMissPenalty == 0 {
		c.MapMissPenalty = c.ReadLatency
	}
	if c.MapEvictPenalty == 0 {
		c.MapEvictPenalty = c.ProgramLatency / 8
	}
	if c.FillFrac == 0 {
		c.FillFrac = 1
	}
	if c.FillFrac < 0 {
		c.FillFrac = 0
	}
}

// Stats aggregates the backend's resource counters. User* counters see
// host commands; Flash*/GC* counters see media operations, so
// (FlashPrograms+GCPrograms)/FlashPrograms is the write-amplification
// factor. Precond* snapshot the preconditioning work, which is excluded
// from the run counters.
type Stats struct {
	UserReads, UserWrites, UserFlushes uint64
	// UnmappedReads hit LBAs never written: the controller answers from
	// its zero-fill path without touching flash.
	UnmappedReads uint64
	// Mapping-cache traffic.
	MapHits, MapMisses, MapEvictsDirty uint64
	// Write-buffer stalls (arrivals that found every slot in flight).
	BufStalls   uint64
	BufStallSum sim.Time
	// Media operations. FlashPrograms counts host-data programs only;
	// GCReads/GCPrograms are relocation traffic.
	FlashReads, FlashPrograms uint64
	GCReads, GCPrograms       uint64
	Erases                    uint64
	// GCRuns counts collector invocations; GCBusySum is plane time spent
	// relocating and erasing (the tail-spike budget).
	GCRuns    uint64
	GCBusySum sim.Time
	// Preconditioning snapshot (not part of the run counters above).
	PrecondPrograms, PrecondErases uint64
}

// WriteAmp returns the run's write-amplification factor (total programs
// per host program); 1 exactly when GC never ran.
func (s Stats) WriteAmp() float64 {
	if s.FlashPrograms == 0 {
		return 1
	}
	return float64(s.FlashPrograms+s.GCPrograms) / float64(s.FlashPrograms)
}

// Model is one modeled SSD. It implements ssd.Backend.
type Model struct {
	cfg       Config
	userPages int64
	ppb       int // pages per block
	nblocks   int // total blocks
	nplanes   int
	blocks    []block
	planes    []plane
	chanBusy  []sim.Time // per-channel transfer-bus timeline
	freeTotal int        // free blocks across all planes
	l2p       []int32    // LBA → physical page, -1 unmapped
	ver       []uint32   // LBA → last-write version (conservation checks)
	writeSeq  uint32
	stripe    int // round-robin plane pointer for host/GC programs
	flush     []sim.Time
	cache     mapCache
	st        Stats
	spanBuf   []ssd.BackendSpan
}

// block is one erase block.
type block struct {
	lbas    []int32  // per page: owning LBA, -1 stale or unwritten
	vers    []uint32 // per page: version of the owning write
	written int32    // pages programmed since last erase
	valid   int32
	free    bool
	lastMod sim.Time // last program/invalidate (cost-benefit age)
	erases  uint32
}

// plane is one independently-busy flash array.
type plane struct {
	busyAt sim.Time
	free   []int32 // erased blocks (LIFO)
	active int32   // open block accepting programs, -1 none
}

// New builds a modeled device covering userBlocks host LBAs, deriving
// unset Config fields from prof and preconditioning per cfg (FillFrac
// then ChurnOverwrites, churn order seeded by seed). The preconditioning
// work is state-only: timelines and run Stats start at zero.
func New(cfg Config, prof ssd.Profile, userBlocks uint64, seed uint64) *Model {
	cfg.fill(prof)
	if userBlocks == 0 {
		panic("modeled: device needs at least one host block")
	}
	m := &Model{cfg: cfg, userPages: int64(userBlocks)}
	m.ppb = cfg.PagesPerBlock
	m.nplanes = cfg.Channels * cfg.WaysPerChannel * cfg.PlanesPerWay
	m.sizeArray()
	m.l2p = make([]int32, userBlocks)
	for i := range m.l2p {
		m.l2p[i] = -1
	}
	m.ver = make([]uint32, userBlocks)
	m.chanBusy = make([]sim.Time, cfg.Channels)
	m.cache.init(cfg.MapEntries)
	m.precondition(seed)
	return m
}

// sizeArray chooses blocks-per-plane so the raw array covers the host
// capacity plus over-provisioning, with enough spare blocks for the GC
// watermarks and one open block per plane.
func (m *Model) sizeArray() {
	need := float64(m.userPages) / (1 - m.cfg.OPFrac)
	perPlane := int(need/float64(m.ppb*m.nplanes)) + 1
	if m.cfg.GCLowBlocks == 0 {
		m.cfg.GCLowBlocks = m.nplanes/4 + 2
	}
	if m.cfg.GCHighBlocks <= m.cfg.GCLowBlocks {
		m.cfg.GCHighBlocks = 2 * m.cfg.GCLowBlocks
	}
	for {
		total := perPlane * m.nplanes
		spare := int64(total)*int64(m.ppb) - m.userPages
		// Spare blocks must cover the high watermark, an open block per
		// plane, and slack for relocation headroom.
		if spare >= int64(m.ppb)*int64(m.cfg.GCHighBlocks+m.nplanes+2) {
			break
		}
		perPlane++
	}
	m.nblocks = perPlane * m.nplanes
	m.blocks = make([]block, m.nblocks)
	m.planes = make([]plane, m.nplanes)
	for p := range m.planes {
		pl := &m.planes[p]
		pl.active = -1
		pl.free = make([]int32, 0, perPlane)
		// Push high block ids first so allocation starts at each plane's
		// lowest block (LIFO stack).
		for b := perPlane - 1; b >= 0; b-- {
			id := int32(p*perPlane + b)
			m.blocks[id].free = true
			pl.free = append(pl.free, id)
		}
	}
	m.freeTotal = m.nblocks
	for i := range m.blocks {
		b := &m.blocks[i]
		b.lbas = make([]int32, m.ppb)
		for j := range b.lbas {
			b.lbas[j] = -1
		}
		b.vers = make([]uint32, m.ppb)
	}
}

// planeOf returns the plane owning a physical page.
func (m *Model) planeOf(ppn int32) int { return int(ppn) / (m.ppb * m.blocksPerPlane()) }

// blocksPerPlane returns the per-plane block count.
func (m *Model) blocksPerPlane() int { return m.nblocks / m.nplanes }

// channelOf maps a plane to its channel. Planes are laid out
// channel-major, so consecutive plane ids alternate channels and the
// round-robin stripe pointer spreads programs across channels first.
func (m *Model) channelOf(pl int) int { return pl % m.cfg.Channels }

// Stats returns a copy of the run counters.
func (m *Model) Stats() Stats { return m.st }

// Config returns the (default-filled) configuration in effect.
func (m *Model) Config() Config { return m.cfg }

// FreeBlocks returns the current global free-block count.
func (m *Model) FreeBlocks() int { return m.freeTotal }

// scale multiplies a service time by the fault injector's spike factor
// (clamped to never shrink a latency).
func scale(t sim.Time, spike float64) sim.Time {
	if spike <= 1 {
		return t
	}
	return sim.Time(float64(t) * spike)
}

// Admit implements ssd.Backend: it commits the media schedule for one
// command and returns its queueing/media split plus trace spans for
// traced commands.
func (m *Model) Admit(now sim.Time, cmd nvme.Command, spike float64) ssd.Admission {
	traced := cmd.Trace != nil
	m.spanBuf = m.spanBuf[:0]
	var adm ssd.Admission
	switch cmd.Opcode {
	case nvme.OpRead:
		m.st.UserReads += uint64(cmd.Blocks())
		adm = m.admitRead(now, int64(cmd.SLBA), cmd.Blocks(), spike, traced)
	case nvme.OpWrite:
		m.st.UserWrites += uint64(cmd.Blocks())
		adm = m.admitWrite(now, int64(cmd.SLBA), cmd.Blocks(), spike, traced)
	case nvme.OpFlush:
		m.st.UserFlushes++
		adm = m.admitFlush(now, spike, traced)
	default:
		panic(fmt.Sprintf("modeled: unknown opcode %v", cmd.Opcode))
	}
	if traced {
		adm.Spans = m.spanBuf
	}
	return adm
}

// span appends one labeled interval to the per-admission span buffer
// (only called for traced commands; zero-length intervals are dropped).
func (m *Model) span(label string, start, end sim.Time) {
	if end > start {
		//hwdp:ignore hotalloc only runs for traced commands (single-miss experiments); the span buffer is reused across admissions
		m.spanBuf = append(m.spanBuf, ssd.BackendSpan{Label: label, Start: start, End: end})
	}
}

// admitRead schedules n sequential page reads: mapping fetch, plane
// array read (serialized per plane), then the channel transfer bus.
func (m *Model) admitRead(now sim.Time, lba int64, n int, spike float64, traced bool) ssd.Admission {
	first, started := now, false
	t := now
	for i := 0; i < n; i++ {
		pen := m.cacheAccess(lba+int64(i), false)
		if traced {
			m.span("map-fetch", t, t+pen)
		}
		rt := t + pen
		ppn := m.l2p[lba+int64(i)]
		if ppn < 0 {
			// Never-written LBA: the controller zero-fills without
			// touching the array.
			m.st.UnmappedReads++
			if !started {
				first, started = rt, true
			}
			if traced {
				m.span("media read", rt, rt+scale(m.cfg.ReadLatency, spike))
			}
			t = rt + scale(m.cfg.ReadLatency, spike) + m.cfg.XferLatency
			continue
		}
		pl := &m.planes[m.planeOf(ppn)]
		start := rt
		if pl.busyAt > start {
			start = pl.busyAt
		}
		if traced {
			m.span("channel-queue-wait", rt, start)
		}
		mediaEnd := start + scale(m.cfg.ReadLatency, spike)
		pl.busyAt = mediaEnd
		m.st.FlashReads++
		ch := m.channelOf(m.planeOf(ppn))
		busStart := mediaEnd
		if m.chanBusy[ch] > busStart {
			busStart = m.chanBusy[ch]
		}
		done := busStart + m.cfg.XferLatency
		m.chanBusy[ch] = done
		if traced {
			m.span("media read", start, mediaEnd)
			m.span("bus-wait", mediaEnd, busStart)
			m.span("bus-xfer", busStart, done)
		}
		if !started {
			first, started = start, true
		}
		t = done
	}
	return ssd.Admission{Start: first, Done: t}
}

// admitWrite schedules n sequential buffered page writes: mapping
// update, a DRAM buffer slot (stalling when all slots hold in-flight
// programs), a fast host ack, and a background flash program that
// occupies a striped plane and may trigger garbage collection.
func (m *Model) admitWrite(now sim.Time, lba int64, n int, spike float64, traced bool) ssd.Admission {
	first, started := now, false
	t := now
	for i := 0; i < n; i++ {
		pen := m.cacheAccess(lba+int64(i), true)
		if traced {
			m.span("map-fetch", t, t+pen)
		}
		wt := t + pen
		// Reap completed programs, then stall if the buffer is still full.
		m.reapFlushes(wt)
		if len(m.flush) >= m.cfg.BufEntries {
			slot := m.minFlush()
			if m.flush[slot] > wt {
				m.st.BufStalls++
				m.st.BufStallSum += m.flush[slot] - wt
				if traced {
					m.span("buf-stall", wt, m.flush[slot])
				}
				wt = m.flush[slot]
			}
			m.popFlush(slot)
		}
		if !started {
			first, started = wt, true
		}
		ack := wt + scale(m.cfg.BufWriteLatency, spike)
		if traced {
			m.span("media write", wt, ack)
		}
		// The program enters the flash pipeline once the data is in the
		// buffer (at ack time).
		m.program(lba+int64(i), ack, false)
		t = ack
	}
	return ssd.Admission{Start: first, Done: t}
}

// admitFlush waits for every outstanding buffered program to reach flash
// and acks FlushLatency later.
func (m *Model) admitFlush(now sim.Time, spike float64, traced bool) ssd.Admission {
	t := now
	for _, f := range m.flush {
		if f > t {
			t = f
		}
	}
	m.flush = m.flush[:0]
	if traced {
		m.span("buf-drain", now, t)
		m.span("media flush", t, t+scale(m.cfg.FlushLatency, spike))
	}
	return ssd.Admission{Start: t, Done: t + scale(m.cfg.FlushLatency, spike)}
}

// reapFlushes drops buffer slots whose programs completed by t.
func (m *Model) reapFlushes(t sim.Time) {
	keep := m.flush[:0]
	for _, f := range m.flush {
		if f > t {
			//hwdp:ignore hotalloc in-place filter over flush's own backing array; never outgrows it
			keep = append(keep, f)
		}
	}
	m.flush = keep
}

// minFlush returns the index of the earliest-completing buffered program.
func (m *Model) minFlush() int {
	min := 0
	for i, f := range m.flush {
		if f < m.flush[min] {
			min = i
		}
	}
	return min
}

// popFlush removes one buffer slot, preserving order of the rest (order
// is irrelevant for timing but keeps runs bit-stable).
func (m *Model) popFlush(i int) {
	//hwdp:ignore hotalloc in-place element removal within flush's existing backing array
	m.flush = append(m.flush[:i], m.flush[i+1:]...)
}

// program writes one host (or relocated) page: allocates a flash page on
// the striped plane — running GC when free blocks hit the low watermark —
// occupies the plane for the program, and moves the mapping.
func (m *Model) program(lba int64, ready sim.Time, gc bool) {
	ppn, pl := m.allocPage(ready, gc)
	p := &m.planes[pl]
	start := ready
	if p.busyAt > start {
		start = p.busyAt
	}
	end := start + m.cfg.ProgramLatency
	p.busyAt = end
	if gc {
		m.st.GCPrograms++
		m.mapMove(lba, ppn, end)
	} else {
		m.st.FlashPrograms++
		//hwdp:ignore hotalloc flush is bounded by the configured buffer slots; its backing array reaches that capacity and stops growing
		m.flush = append(m.flush, end)
		m.writeSeq++
		m.ver[lba] = m.writeSeq
		m.mapMove(lba, ppn, end)
	}
}

// mapMove points lba at its new flash page, invalidating the old one.
func (m *Model) mapMove(lba int64, ppn int32, when sim.Time) {
	if old := m.l2p[lba]; old >= 0 {
		ob := &m.blocks[old/int32(m.ppb)]
		off := old % int32(m.ppb)
		if ob.lbas[off] != int32(lba) {
			panic(fmt.Sprintf("modeled: inverse map corrupt: page %d owned by %d, invalidated by %d",
				old, ob.lbas[off], lba))
		}
		ob.lbas[off] = -1
		ob.valid--
		ob.lastMod = when
	}
	nb := &m.blocks[ppn/int32(m.ppb)]
	off := ppn % int32(m.ppb)
	nb.lbas[off] = int32(lba)
	nb.vers[off] = m.ver[lba]
	nb.valid++
	nb.lastMod = when
	m.l2p[lba] = ppn
}

// allocPage returns the next free flash page on the round-robin striped
// planes, opening blocks from the free pool as needed. Host allocations
// (gc=false) run the collector when the pool is at the low watermark; GC
// relocations (gc=true) draw from the pool directly — the watermark gap
// is their headroom.
func (m *Model) allocPage(now sim.Time, gc bool) (int32, int) {
	if !gc && m.freeTotal <= m.cfg.GCLowBlocks {
		m.collect(now)
	}
	for scanned := 0; scanned < m.nplanes; scanned++ {
		pl := m.stripe
		m.stripe = (m.stripe + 1) % m.nplanes
		p := &m.planes[pl]
		if p.active < 0 {
			n := len(p.free)
			if n == 0 {
				continue // this plane is out of blocks; stripe on
			}
			id := p.free[n-1]
			p.free = p.free[:n-1]
			m.freeTotal--
			m.blocks[id].free = false
			p.active = id
		}
		b := &m.blocks[p.active]
		ppn := p.active*int32(m.ppb) + b.written
		b.written++
		if int(b.written) == m.ppb {
			p.active = -1
		}
		return ppn, pl
	}
	panic("modeled: flash array exhausted (over-provisioning too small for the write load)")
}
