// Package hwdp is a simulation library reproducing "A Case for
// Hardware-Based Demand Paging" (ISCA 2020). It models a complete machine —
// CPU cores with SMT, MMU/TLB, x86-64-style page tables, an NVMe stack,
// ultra-low-latency SSDs, and an operating system with a page cache and
// demand paging — plus the paper's two architectural extensions: the
// LBA-augmented page table and the Storage Management Unit (SMU).
//
// The same workload can run under three demand-paging schemes:
//
//   - OSDP: the conventional kernel page-fault path (exception, block
//     layer, context switch, interrupt).
//   - SWOnly: LBA-augmented PTEs with a software-emulated SMU (the paper's
//     Fig. 17 baseline).
//   - HWDP: full hardware handling — the pipeline stalls while the SMU
//     fetches the page directly over NVMe.
//
// Quickstart:
//
//	sys := hwdp.New(hwdp.Config{Scheme: hwdp.HWDP})
//	lat, _ := sys.ColdPageLatency()
//	fmt.Println("one hardware-handled page miss:", lat)
//
// The heavy lifting lives in the internal packages; this package offers a
// small synchronous API for experiments and examples, advancing the
// discrete-event simulation under the hood. For full control (custom
// workloads, async operation, per-component stats) use the internal
// packages directly; cmd/hwdpbench regenerates every figure of the paper.
package hwdp

import (
	"fmt"
	"io"

	"hwdp/internal/check"
	"hwdp/internal/core"
	"hwdp/internal/fault"
	"hwdp/internal/fs"
	"hwdp/internal/kernel"
	"hwdp/internal/kvs"
	"hwdp/internal/mem"
	"hwdp/internal/metrics"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/smu"
	"hwdp/internal/ssd"
	"hwdp/internal/trace"
	"hwdp/internal/workload"
)

// Scheme selects the demand-paging implementation.
type Scheme int

// Schemes.
const (
	OSDP Scheme = iota
	SWOnly
	HWDP
)

// String returns the scheme's display name (OSDP, SW-only, HWDP).
func (s Scheme) String() string { return s.kernel().String() }

func (s Scheme) kernel() kernel.Scheme {
	switch s {
	case OSDP:
		return kernel.OSDP
	case SWOnly:
		return kernel.SWDP
	default:
		return kernel.HWDP
	}
}

// Device selects the storage latency profile.
type Device int

// Devices (Fig. 17's three generations).
const (
	ZSSD Device = iota
	OptaneSSD
	OptaneDCPMM
)

func (d Device) profile() ssd.Profile {
	switch d {
	case OptaneSSD:
		return ssd.OptaneSSD
	case OptaneDCPMM:
		return ssd.OptaneDCPMM
	default:
		return ssd.ZSSD
	}
}

// Duration is virtual time in picoseconds (re-exported from the simulator).
type Duration = sim.Time

// Config describes a machine. Zero values pick the evaluation defaults
// (8 cores × 2 SMT at 2.8 GHz, 64 MiB memory, Z-SSD).
type Config struct {
	Scheme   Scheme
	Device   Device
	MemoryMB int
	Cores    int
	Seed     uint64
	// Deterministic disables device service-time jitter (exact latencies).
	Deterministic bool
	// PrefetchDegree enables the SMU's sequential prefetcher (Section V
	// future work): on a miss, the next N LBA-augmented pages are fetched
	// speculatively.
	PrefetchDegree int
	// PerCoreFreeQueues gives the SMU one free page queue per logical
	// core (Section V's per-thread memory-policy option).
	PerCoreFreeQueues bool
	// LogStructuredFS makes the file system remap blocks on write
	// (CoW/LFS), exercising the LBA-patching control plane.
	LogStructuredFS bool
	// StallTimeoutUS bounds HWDP pipeline stalls: past it, a timeout
	// exception context-switches the thread away (Section V, long-latency
	// I/O). Zero disables.
	StallTimeoutUS int
	// Faults attaches a deterministic fault injector to every device.
	// Injection draws come from a PRNG stream forked off Seed, so two runs
	// with the same Config produce bit-identical outcomes, faults included.
	Faults []FaultRule
	// SMUCmdTimeoutUS arms the SMU's per-command completion timeout (needed
	// to recover from dropped commands on the hardware path). Zero keeps
	// the timeout disabled.
	SMUCmdTimeoutUS int
	// Trace enables the per-miss observability tracer: every page miss is
	// followed through MMU → SMU → NVMe → SSD and the kernel exception
	// path, and the System exposes WriteTrace (Chrome trace JSON),
	// BreakdownReport (critical-path attribution) and FlightDump
	// (flight-recorder postmortems). Off by default; when off, the miss
	// path does no tracing work and performs no allocations for it.
	Trace bool
	// TraceRing sets the flight-recorder depth in misses (0 picks the
	// default of 64). Only meaningful with Trace enabled.
	TraceRing int
}

// FaultKind classifies an injected device fault.
type FaultKind int

// Fault kinds.
const (
	// FaultTransient completes the command with a retryable error status;
	// a resubmission usually succeeds.
	FaultTransient FaultKind = iota + 1
	// FaultUECC is an unrecoverable media error: retries never help, and a
	// faulting read ends in an OS-delivered SIGBUS kill.
	FaultUECC
	// FaultDrop loses the command inside the device — no completion, no
	// DMA; only host timeouts recover.
	FaultDrop
	// FaultSpike multiplies the command's service time (latency outlier).
	FaultSpike
)

// FaultRule describes one fault-injection scenario.
type FaultRule struct {
	Kind FaultKind
	// Prob is the per-matching-command injection probability in [0, 1].
	Prob float64
	// LBAStart/LBAEnd restrict the rule to [LBAStart, LBAEnd); both zero
	// means all LBAs.
	LBAStart, LBAEnd uint64
	// ReadsOnly / WritesOnly restrict the rule to one opcode class.
	ReadsOnly, WritesOnly bool
	// SMUPathOnly restricts the rule to the SMU's isolated queue,
	// exercising hardware-path degradation without touching OS I/O.
	SMUPathOnly bool
	// Burst injects on the next Burst-1 matching commands after each
	// probability hit (clustered errors).
	Burst int
	// SpikeFactor is the service-time multiplier for FaultSpike (default
	// 10x when zero).
	SpikeFactor float64
	// MaxInjections caps the rule's total injections (0 = unlimited).
	MaxInjections uint64
}

func (r FaultRule) rule() fault.Rule {
	out := fault.Rule{
		Kind:          fault.Kind(r.Kind),
		Prob:          r.Prob,
		LBAStart:      r.LBAStart,
		LBAEnd:        r.LBAEnd,
		ReadsOnly:     r.ReadsOnly,
		WritesOnly:    r.WritesOnly,
		Burst:         r.Burst,
		SpikeFactor:   r.SpikeFactor,
		MaxInjections: r.MaxInjections,
	}
	if r.SMUPathOnly {
		out.Queue = core.SMUQueueID
	}
	return out
}

// System is one simulated machine plus its primary process.
type System struct {
	sys *core.System
}

// New builds and boots a machine.
func New(cfg Config) *System {
	c := core.DefaultConfig(cfg.Scheme.kernel())
	if cfg.MemoryMB > 0 {
		c.MemoryBytes = uint64(cfg.MemoryMB) << 20
	} else {
		c.MemoryBytes = 64 << 20
	}
	if cfg.Cores > 0 {
		c.Cores = cfg.Cores
	}
	if cfg.Seed != 0 {
		c.Seed = cfg.Seed
	}
	c.Device = cfg.Device.profile()
	c.DeviceJitter = !cfg.Deterministic
	c.PrefetchDegree = cfg.PrefetchDegree
	c.PerCoreFreeQueues = cfg.PerCoreFreeQueues
	c.LogStructuredFS = cfg.LogStructuredFS
	c.Kernel.StallTimeout = sim.Time(cfg.StallTimeoutUS) * sim.Microsecond
	for _, r := range cfg.Faults {
		c.FaultRules = append(c.FaultRules, r.rule())
	}
	if cfg.SMUCmdTimeoutUS > 0 {
		p := smu.DefaultRetryPolicy()
		p.CmdTimeout = sim.Time(cfg.SMUCmdTimeoutUS) * sim.Microsecond
		c.SMURetry = &p
	}
	c.TraceEnabled = cfg.Trace
	c.TraceRing = cfg.TraceRing
	return &System{sys: c.Build()}
}

// Raw exposes the underlying machine for advanced use.
func (s *System) Raw() *core.System { return s.sys }

// Now returns the current virtual time.
func (s *System) Now() Duration { return s.sys.Eng.Now() }

// RunFor advances virtual time (background kernel threads keep working).
func (s *System) RunFor(d Duration) { s.sys.RunFor(d) }

// await steps the simulation until *done is true.
func (s *System) await(done *bool) {
	s.sys.RunWhile(func() bool { return !*done })
	if !*done {
		panic("hwdp: operation never completed (event queue drained)")
	}
}

// ColdPageLatency maps a fresh file and measures one cold page miss
// end-to-end under the configured scheme.
func (s *System) ColdPageLatency() (Duration, error) {
	name := fmt.Sprintf("probe-%d", s.sys.Eng.Fired())
	va, _, err := s.sys.MapFile(name, 16, fs.SeededInit(1), s.sys.FastFlags())
	if err != nil {
		return 0, err
	}
	lat := s.sys.MeasureSingleFault(s.sys.WorkloadThread(0), va)
	return lat, nil
}

// FIOResult summarizes a FIO run.
type FIOResult struct {
	Ops          uint64
	Throughput   float64  // ops per virtual second
	MeanLatency  Duration // per 4 KiB read
	P99Latency   Duration
	HWMisses     uint64
	OSFaults     uint64
	KernelInstr  uint64 // on the workload threads
	UserInstr    uint64
	UserIPC      float64
	StallTime    Duration
	ContextSwaps uint64
}

// RunFIO runs the FIO random-read microbenchmark: `threads` threads, each
// performing `opsPerThread` 4 KiB reads over a file `filePages` long.
func (s *System) RunFIO(threads, opsPerThread, filePages int) (FIOResult, error) {
	name := fmt.Sprintf("fio-%d", s.sys.Eng.Fired())
	fio, err := workload.SetupFIO(s.sys, name, filePages, s.sys.FastFlags())
	if err != nil {
		return FIOResult{}, err
	}
	ths := make([]*kernel.Thread, threads)
	for i := range ths {
		ths[i] = s.sys.WorkloadThread(i)
	}
	rs := workload.Run(s.sys, ths, fio, workload.RunOptions{OpsPerThread: opsPerThread})
	m := workload.Merge(rs)
	var res FIOResult
	res.Ops = m.Ops
	res.Throughput = m.Throughput()
	res.MeanLatency = m.MeanLatency()
	res.P99Latency = Duration(m.Lat.Percentile(99))
	mmuSt := s.sys.MMU.Stats()
	res.HWMisses = mmuSt.HWMisses
	res.OSFaults = mmuSt.OSFaults
	for _, th := range ths {
		res.KernelInstr += th.HW.KernelInstr
		res.UserInstr += th.HW.UserInstr
		res.StallTime += th.HW.StallTime
		res.ContextSwaps += th.HW.ContextSwaps
	}
	if len(ths) > 0 {
		res.UserIPC = ths[0].HW.Counters.UserIPC()
	}
	return res, nil
}

// Store is a synchronous view of the mini NoSQL record store.
type Store struct {
	s  *System
	st *kvs.Store
	th *kernel.Thread
	wb []byte
}

// CreateStore builds a record store of `keys` 4 KiB records, mapped with
// the scheme's mmap flags (fast mmap under HWDP/SW-only).
func (s *System) CreateStore(name string, keys uint64) (*Store, error) {
	st, err := kvs.Create(s.sys.K, s.sys.FS, s.sys.Proc, name, keys, 0, 0, s.sys.FastFlags())
	if err != nil {
		return nil, err
	}
	return &Store{s: s, st: st, th: s.sys.WorkloadThread(0), wb: make([]byte, kvs.RecordSize)}, nil
}

// Keys returns the number of records.
func (st *Store) Keys() uint64 { return st.st.Keys() }

// Get reads and validates one record, returning its payload bytes and
// version.
func (st *Store) Get(key uint64) (payload []byte, version uint64, err error) {
	done := false
	var gv uint64
	var rec mem.Content
	var ge error
	st.st.Get(st.th, key, func(v uint64, c mem.Content, e error) { gv, rec, ge, done = v, c, e, true })
	st.s.await(&done)
	rec.Materialize(st.wb)
	out := make([]byte, kvs.PayloadSize)
	copy(out, st.wb[kvs.RecordSize-kvs.PayloadSize:])
	return out, gv, ge
}

// Put writes one record at the given version.
func (st *Store) Put(key, version uint64) error {
	done := false
	var pe error
	st.st.Put(st.th, key, version, func(e error) { pe, done = e, true })
	st.s.await(&done)
	return pe
}

// ReadModifyWrite bumps a record's version atomically from the client's
// point of view.
func (st *Store) ReadModifyWrite(key uint64) error {
	done := false
	var pe error
	st.st.ReadModifyWrite(st.th, key, func(e error) { pe, done = e, true })
	st.s.await(&done)
	return pe
}

// YCSBResult summarizes a YCSB run.
type YCSBResult struct {
	Ops         uint64
	Throughput  float64
	MeanLatency Duration
	UserIPC     float64
	Errors      uint64
}

// RunYCSB runs a YCSB core workload (variant 'A'..'F') over a fresh store
// sized to `keys` records.
func (s *System) RunYCSB(variant byte, threads, opsPerThread int, keys uint64) (YCSBResult, error) {
	name := fmt.Sprintf("ycsb-%c-%d", variant, s.sys.Eng.Fired())
	st, err := kvs.Create(s.sys.K, s.sys.FS, s.sys.Proc, name, keys, 0, 0, s.sys.FastFlags())
	if err != nil {
		return YCSBResult{}, err
	}
	w, err := workload.NewYCSB(s.sys, st, variant)
	if err != nil {
		return YCSBResult{}, err
	}
	ths := make([]*kernel.Thread, threads)
	for i := range ths {
		ths[i] = s.sys.WorkloadThread(i)
	}
	rs := workload.Run(s.sys, ths, w, workload.RunOptions{OpsPerThread: opsPerThread})
	m := workload.Merge(rs)
	return YCSBResult{
		Ops:         m.Ops,
		Throughput:  m.Throughput(),
		MeanLatency: m.MeanLatency(),
		UserIPC:     ths[0].HW.Counters.UserIPC(),
		Errors:      m.Errors,
	}, nil
}

// MmapAnon maps anonymous (heap-style) memory. First touches are handled
// as zero-fills — under HWDP without any I/O, via the reserved first-touch
// LBA constant — and dirty pages evicted under pressure swap out and back
// in through the configured demand-paging scheme. It returns an opaque
// handle usable with Touch/Read/Write-style access through Raw().
func (s *System) MmapAnon(pages int) (AnonRegion, error) {
	va, err := s.sys.K.MmapAnon(s.sys.Proc, 0, 0, pages,
		anonProt(), s.sys.Cfg.Scheme != kernelOSDP())
	if err != nil {
		return AnonRegion{}, err
	}
	return AnonRegion{s: s, base: va, pages: pages,
		th: s.sys.WorkloadThread(0)}, nil
}

// AnonRegion is a mapped anonymous memory region with synchronous access
// helpers.
type AnonRegion struct {
	s     *System
	base  pagetable.VAddr
	pages int
	th    *kernel.Thread
}

// Pages returns the region length in 4 KiB pages.
func (a AnonRegion) Pages() int { return a.pages }

// Write stores data at byte offset off.
func (a AnonRegion) Write(off int, data []byte) error {
	if off < 0 || off+len(data) > a.pages*4096 {
		return fmt.Errorf("hwdp: write outside region")
	}
	done := false
	a.s.sys.K.Store(a.th, a.base+pagetable.VAddr(off), data, func(mmu.Result) { done = true })
	a.s.await(&done)
	return nil
}

// Read loads len(buf) bytes at byte offset off.
func (a AnonRegion) Read(off int, buf []byte) error {
	if off < 0 || off+len(buf) > a.pages*4096 {
		return fmt.Errorf("hwdp: read outside region")
	}
	done := false
	a.s.sys.K.Load(a.th, a.base+pagetable.VAddr(off), buf, func(mmu.Result) { done = true })
	a.s.await(&done)
	return nil
}

// Stats is a machine-wide counter snapshot.
type Stats struct {
	HWMisses       uint64
	OSFaults       uint64
	MajorFaults    uint64
	MinorFaults    uint64
	HWBounceFaults uint64
	Evictions      uint64
	Writebacks     uint64
	KptedSyncs     uint64
	KpooldFrames   uint64
	DeviceReads    uint64
	DeviceWrites   uint64
	PMSHRCoalesced uint64
	AnonZeroFills  uint64
	Prefetches     uint64
	StallTimeouts  uint64
}

// Stats snapshots the machine counters.
func (s *System) Stats() Stats {
	ks := s.sys.K.Stats()
	ms := s.sys.MMU.Stats()
	st := Stats{
		HWMisses:       ms.HWMisses,
		OSFaults:       ms.OSFaults,
		MajorFaults:    ks.MajorFaults,
		MinorFaults:    ks.MinorFaults,
		HWBounceFaults: ks.HWBounceFaults,
		Evictions:      ks.Evictions,
		Writebacks:     ks.Writebacks,
		KptedSyncs:     ks.KptedSyncs,
		KpooldFrames:   ks.KpooldFrames,
		Prefetches:     ms.Prefetches,
		StallTimeouts:  ks.StallTimeouts,
	}
	for _, d := range s.sys.Devs {
		ds := d.Stats()
		st.DeviceReads += ds.Reads
		st.DeviceWrites += ds.Writes
	}
	for _, u := range s.sys.SMUs {
		ss := u.Stats()
		st.PMSHRCoalesced += ss.Coalesced
		st.AnonZeroFills += ss.AnonZeroFill
	}
	return st
}

// Recovery reports the per-layer error-recovery counters: injected faults
// at the device boundary, SMU retries/timeouts, block-layer retries, and
// OS-level degradation (bounced faults, SIGBUS kills, abandoned
// writebacks). All zero on a fault-free run.
func (s *System) Recovery() metrics.Recovery { return s.sys.Recovery() }

// Tracer exposes the observability tracer, nil unless Config.Trace was
// set. Most callers want WriteTrace, BreakdownReport or FlightDump
// instead; the tracer itself offers the raw per-miss records.
func (s *System) Tracer() *trace.Tracer { return s.sys.Trace }

// WriteTrace writes every traced miss as Chrome trace_event JSON,
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
// The output is byte-deterministic for a given seed and config. It
// returns an error if tracing is disabled or the writer fails.
func (s *System) WriteTrace(w io.Writer) error {
	if s.sys.Trace == nil {
		return fmt.Errorf("hwdp: tracing disabled (set Config.Trace)")
	}
	return trace.WriteChrome(w, trace.Process{Name: s.sys.Cfg.Scheme.String(), T: s.sys.Trace})
}

// BreakdownReport renders the critical-path attribution tables: per-layer
// and per-phase time-in-layer statistics (count, mean, p50, p99) over all
// traced misses, plus a per-cause census. Returns a note when tracing is
// disabled.
func (s *System) BreakdownReport() string { return s.sys.Trace.Report() }

// FlightDump renders the flight recorder — the last traced misses, span
// by span — plus any postmortems captured at SIGBUS kills. Returns a note
// when tracing is disabled.
func (s *System) FlightDump() string { return s.sys.Trace.FlightDump() }

// CheckInvariants validates the machine's structural invariants (frame
// accounting, no page aliasing, Table I discipline, PMSHR bounds) and
// returns human-readable violations — empty on a healthy machine.
func (s *System) CheckInvariants() []string {
	var out []string
	for _, v := range check.System(s.sys) {
		out = append(out, v.String())
	}
	return out
}

func anonProt() pagetable.Prot { return pagetable.Prot{Write: true, User: true} }

func kernelOSDP() kernel.Scheme { return kernel.OSDP }
