// Package core assembles the full machine: engine, CPU, memory, MMU, SMU,
// NVMe SSD, file system and kernel, wired per the paper's system diagram
// (Fig. 5). It is the layer the public hwdp API and the benchmark harness
// sit on.
package core

import (
	"errors"
	"fmt"

	"hwdp/internal/cpu"
	"hwdp/internal/fault"
	"hwdp/internal/fs"
	"hwdp/internal/kernel"
	"hwdp/internal/mem"
	"hwdp/internal/metrics"
	"hwdp/internal/mmu"
	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/smu"
	"hwdp/internal/ssd"
	"hwdp/internal/ssd/modeled"
	"hwdp/internal/trace"
)

// SMUQueueID is the NVMe queue ID of the SMU's isolated queue on every
// socket's device (OS queues start at 1000). Fault rules can
// target it to exercise the hardware path's degradation in isolation.
const SMUQueueID uint16 = 1

// Config describes one machine.
type Config struct {
	Scheme kernel.Scheme
	// Cores is the number of physical cores (2 SMT hardware threads each).
	// The evaluation machine has 8 (Table II).
	Cores int
	// MemoryBytes is the DRAM size. The paper's 32 GiB is scaled down by
	// default (all results are ratio-driven; see DESIGN.md).
	MemoryBytes uint64
	// Device is the SSD latency profile (Z-SSD by default).
	Device ssd.Profile
	// FreeQueueDepth is the SMU free page queue depth (paper: 4096).
	FreeQueueDepth int
	// PMSHREntries overrides the PMSHR size (0 = the prototype's 32); the
	// design-space ablation sweeps it.
	PMSHREntries int
	// PerCoreFreeQueues gives the SMU one free page queue per logical core
	// (Section V's option for per-thread memory-management policy).
	PerCoreFreeQueues bool
	// PrefetchDegree enables the future-work sequential prefetcher: on a
	// hardware miss the next N LBA-augmented pages are fetched
	// speculatively.
	PrefetchDegree int
	// LogStructuredFS makes every file system remap blocks on write
	// (CoW/LFS behavior): each writeback moves the block and patches
	// LBA-augmented PTEs of marked files.
	LogStructuredFS bool
	// Sockets builds a multi-socket machine: each socket gets its own SMU
	// (the PTE's 3-bit SID field selects the home SMU, up to 8 sockets)
	// with its own NVMe device and file system. Zero means one socket.
	Sockets int
	// Seed drives all randomness.
	Seed uint64
	// Kernel carries kernel tunables; Scheme and Costs are filled in by
	// NewSystem.
	Kernel kernel.Config
	// FSBlocks is the file-system capacity in 4 KiB blocks.
	FSBlocks uint64
	// DeviceJitter enables service-time jitter (off for latency-exact
	// microbenchmarks, on for throughput runs).
	DeviceJitter bool
	// FaultRules, when non-empty, attach a deterministic fault injector to
	// every socket's device (each gets its own forked PRNG stream off Seed,
	// so same-seed runs replay bit-identically).
	FaultRules []fault.Rule
	// SMURetry overrides the SMU's error-recovery policy (nil keeps
	// smu.DefaultRetryPolicy).
	SMURetry *smu.RetryPolicy
	// TraceEnabled turns on the per-miss observability tracer: every page
	// miss gets a trace context threaded through MMU → SMU → NVMe → SSD
	// and the kernel exception path. Off by default; when off, the miss
	// path performs no tracing work at all.
	TraceEnabled bool
	// SSDBackend selects the device media model: "" or "profile" keeps
	// the latency-profile backend (byte-identical to historical runs);
	// "modeled" swaps in internal/ssd/modeled — a page-mapping FTL with a
	// bounded mapping cache, garbage collection over an over-provisioned
	// flash array, channel/way/plane parallelism and a DRAM write buffer.
	// See docs/SSD.md.
	SSDBackend string
	// SSDModeled tunes the modeled backend; zero fields are derived from
	// Device. Only read when SSDBackend is "modeled". FillFrac and
	// ChurnOverwrites are the preconditioning knobs (fresh vs
	// steady-state drive).
	SSDModeled modeled.Config
}

// DefaultConfig mirrors the evaluation setup (Table II) at simulation
// scale: 8 physical cores at 2.8 GHz, Z-SSD, 256 MiB of memory.
func DefaultConfig(scheme kernel.Scheme) Config {
	return Config{
		Scheme:         scheme,
		Cores:          8,
		MemoryBytes:    256 << 20,
		Device:         ssd.ZSSD,
		FreeQueueDepth: 4096,
		Seed:           1,
		Kernel:         kernel.DefaultConfig(scheme),
		FSBlocks:       1 << 22, // 16 GiB of storage
		DeviceJitter:   true,
	}
}

// Validate checks the machine description for construction-time errors:
// too few cores for the background kernel threads, more sockets than the
// PTE's 3-bit SID field can address, or an unknown SSD backend name.
// NewSystem runs it first, so invalid configs (e.g. a fleet sweep asking
// for 9 sockets) fail with an error instead of crashing the worker.
func (c Config) Validate() error {
	if c.Cores < 2 {
		return fmt.Errorf("core: need at least 2 physical cores (background threads), have %d", c.Cores)
	}
	sockets := c.Sockets
	if sockets == 0 {
		sockets = 1
	}
	if sockets > 8 {
		return fmt.Errorf("core: %d sockets: the PTE's SID field addresses at most 8", sockets)
	}
	switch c.SSDBackend {
	case "", "profile", "modeled":
	default:
		return fmt.Errorf("core: unknown SSDBackend %q (want \"profile\" or \"modeled\")", c.SSDBackend)
	}
	return nil
}

// Build assembles a machine from the config, panicking on an invalid one
// (sugar for NewSystem where the config is known good: tests, examples and
// the figure harness).
func (c Config) Build() *System {
	sys, err := NewSystem(c)
	if err != nil {
		panic(err)
	}
	return sys
}

// Dur converts raw picoseconds (e.g. histogram percentiles) to sim.Time.
func Dur(ps int64) sim.Time { return sim.Time(ps) }

// System is one assembled machine. SMUs, Devs and FSs hold each socket's
// components, indexed by socket ID.
type System struct {
	Cfg Config
	// Eng is the event engine every component schedules on.
	Eng  *sim.Engine
	CPU  *cpu.CPU
	Mem  *mem.Memory
	MMU  *mmu.MMU
	FS   *fs.FS // socket 0's file system, where MapFile puts files
	SMUs []*smu.SMU
	Devs []*ssd.Device
	FSs  []*fs.FS
	// ModeledSSDs holds each socket's FTL/GC model when
	// Config.SSDBackend is "modeled" (index = socket), nil otherwise.
	ModeledSSDs []*modeled.Model
	K           *kernel.Kernel
	Proc        *kernel.Process
	Rng         *sim.Rand
	// Trace is the observability tracer, nil unless Config.TraceEnabled.
	Trace *trace.Tracer
}

// NewSystem builds and starts a machine, or reports why the config cannot
// describe one (see Config.Validate).
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sockets := cfg.Sockets
	if sockets == 0 {
		sockets = 1
	}
	eng := sim.NewEngine()
	rng := sim.NewRand(cfg.Seed)
	c := cpu.New(eng, cfg.Cores, cpu.DefaultParams())
	memory := mem.New(cfg.MemoryBytes)
	prof := cfg.Device
	if !cfg.DeviceJitter {
		prof.JitterFrac = 0
	}

	mm := mmu.New(eng)
	mm.PrefetchDegree = cfg.PrefetchDegree
	var tracer *trace.Tracer
	if cfg.TraceEnabled {
		tracer = trace.New()
		mm.Tracer = tracer
	}
	// Keep the free page queue a small fraction of memory (the paper's
	// 4096-entry queue is 0.05% of 32 GiB); at simulation scale, clamp so
	// scaled-down machines keep the same character.
	qDepth := cfg.FreeQueueDepth
	if max := int(memory.Frames() / 16); qDepth > max {
		qDepth = max
	}
	if qDepth < 8 {
		qDepth = 8
	}
	pmshr := cfg.PMSHREntries
	if pmshr == 0 {
		pmshr = smu.PMSHREntries
	}
	queues := 1
	if cfg.PerCoreFreeQueues {
		queues = cfg.Cores * 2
	}

	kcfg := cfg.Kernel
	kcfg.Scheme = cfg.Scheme
	// Abort-driven watchdogs are disarmed for the modeled backend without
	// fault injection: its GC stalls legitimately exceed the default 10 ms
	// BlockTimeout, and a command behind a relocation convoy is slow, not
	// lost — aborting it just re-queues into the same stall.
	disarmWatchdogs := cfg.SSDBackend == "modeled" && len(cfg.FaultRules) == 0
	if disarmWatchdogs {
		kcfg.BlockTimeout = 0
	}
	// Background kernel threads ride the SMT siblings of the last cores,
	// leaving hardware threads 2i free for workload pinning.
	n := cfg.Cores * 2
	k := kernel.New(eng, c, memory, mm, kcfg,
		c.Thread(n-1), c.Thread(n-3), c.Thread(n-5))
	k.SetTracer(tracer)

	sys := &System{
		Cfg: cfg, Eng: eng, CPU: c, Mem: memory, MMU: mm, K: k, Rng: rng,
		Trace: tracer,
	}
	for sid := 0; sid < sockets; sid++ {
		fsys := fs.New(uint8(sid), 0, uint32(sid+1), cfg.FSBlocks)
		fsys.RemapOnWrite = cfg.LogStructuredFS
		dev := ssd.New(eng, prof, rng.Fork(0xD0+uint64(sid)), func(cmd nvme.Command) {
			frame := mem.FrameID(cmd.PRP1 / mem.PageSize)
			switch cmd.Opcode {
			case nvme.OpRead:
				if err := fsys.ReadDMA(memory, frame, cmd.SLBA); err != nil {
					panic(fmt.Sprintf("core: read DMA into bad frame: %v", err))
				}
			case nvme.OpWrite:
				if err := fsys.WriteDMA(memory, frame, cmd.SLBA); errors.Is(err, mem.ErrBadFrame) {
					panic(fmt.Sprintf("core: write DMA from bad frame: %v", err))
				}
			}
		})
		dev.AddNamespace(nvme.Namespace{ID: uint32(sid + 1), Blocks: cfg.FSBlocks})
		switch cfg.SSDBackend {
		case "", "profile":
			// Latency-profile media model (the historical default).
		case "modeled":
			// The model's construction seed mixes the socket in directly
			// rather than forking rng, so the profile path's draw sequence
			// is untouched when the backend is off.
			m := modeled.New(cfg.SSDModeled, prof, cfg.FSBlocks,
				cfg.Seed^(0x55D0+uint64(sid)<<8))
			dev.SetBackend(m)
			sys.ModeledSSDs = append(sys.ModeledSSDs, m)
		default:
			panic(fmt.Sprintf("core: unknown SSDBackend %q (want \"profile\" or \"modeled\")", cfg.SSDBackend))
		}
		if len(cfg.FaultRules) > 0 {
			dev.SetInjector(fault.NewInjector(rng.Fork(0xFA17+uint64(sid)), cfg.FaultRules...))
		}
		s := smu.NewPerCore(eng, uint8(sid), qDepth, pmshr, queues)
		if cfg.SMURetry != nil {
			rp := *cfg.SMURetry
			if disarmWatchdogs {
				// Abort-driven watchdog; see the BlockTimeout disarm above.
				rp.CmdTimeout = 0
			}
			s.SetRetryPolicy(rp)
		}
		// The SMU's isolated queue, apart from the OS block queues.
		s.AttachDevice(0, dev, SMUQueueID, uint32(sid+1))
		mm.AttachSMU(s)
		k.AttachStorage(uint8(sid), 0, dev, fsys)
		k.AttachSMU(s)
		sys.SMUs = append(sys.SMUs, s)
		sys.Devs = append(sys.Devs, dev)
		sys.FSs = append(sys.FSs, fsys)
	}
	sys.FS = sys.FSs[0]
	k.Start()
	sys.Proc = k.NewProcess()
	return sys, nil
}

// MapFileOn creates and maps a file on the given socket's file system.
func (s *System) MapFileOn(socket int, name string, pages int, init fs.Initializer,
	flags kernel.MmapFlags) (pagetable.VAddr, *fs.File, error) {
	f, err := s.FSs[socket].Create(name, pages, init)
	if err != nil {
		return 0, nil, err
	}
	va, err := s.K.Mmap(s.Proc, uint8(socket), 0, f,
		pagetable.Prot{Write: true, User: true}, flags)
	return va, f, err
}

// WorkloadThread returns a thread pinned to hardware thread 2*i — one per
// physical core, matching the evaluation's pinning. i must leave the
// background threads' cores free when many threads are used.
func (s *System) WorkloadThread(i int) *kernel.Thread {
	return s.K.NewThread(s.Proc, 2*i)
}

// SMTPair returns the two threads of physical core i (the Fig. 16
// co-scheduling experiment pins an I/O-bound and a CPU-bound thread onto
// one core).
func (s *System) SMTPair(i int) (*kernel.Thread, *kernel.Thread) {
	return s.K.NewThread(s.Proc, 2*i), s.K.NewThread(s.Proc, 2*i+1)
}

// MapFile creates a file of the given size and maps it.
func (s *System) MapFile(name string, pages int, init fs.Initializer,
	flags kernel.MmapFlags) (pagetable.VAddr, *fs.File, error) {
	f, err := s.FS.Create(name, pages, init)
	if err != nil {
		return 0, nil, err
	}
	va, err := s.K.Mmap(s.Proc, 0, 0, f, pagetable.Prot{Write: true, User: true}, flags)
	return va, f, err
}

// FastFlags returns the mmap flags for the configured scheme: fast mmap
// under HWDP/SWDP, conventional under OSDP.
func (s *System) FastFlags() kernel.MmapFlags {
	return kernel.MmapFlags{Fast: s.Cfg.Scheme != kernel.OSDP}
}

// Run drives the simulation until the queue drains (rarely wanted: the
// kernel's periodic threads keep it non-empty) — prefer RunFor/RunWhile.
func (s *System) Run() { s.Eng.Run() }

// RunFor advances virtual time by d.
func (s *System) RunFor(d sim.Time) { s.Eng.RunUntil(s.Eng.Now() + d) }

// RunWhile steps the engine until cond returns false or the queue drains.
func (s *System) RunWhile(cond func() bool) {
	for cond() && s.Eng.Step() {
	}
}

// Recovery aggregates the per-layer error-recovery counters across every
// socket's device and SMU plus the kernel.
func (s *System) Recovery() metrics.Recovery {
	var r metrics.Recovery
	for _, dev := range s.Devs {
		ds := dev.Stats()
		r.InjectedTransient += ds.InjTransient
		r.InjectedUECC += ds.InjUECC
		r.InjectedDrops += ds.InjDropped
		r.InjectedSpikes += ds.InjSpikes
		r.DeviceAborts += ds.Aborts
	}
	for _, u := range s.SMUs {
		us := u.Stats()
		r.SMURetries += us.Retries
		r.SMUTimeouts += us.Timeouts
		r.SMUIOErrors += us.IOErrors
		r.SMUUECCFailures += us.UECCFailures
		r.SMUFramesRecycled += us.FramesRecycled
	}
	ks := s.K.Stats()
	r.BlockRetries = ks.BlockRetries
	r.BlockTimeouts = ks.BlockTimeouts
	r.HWBounceFaults = ks.HWBounceFaults
	r.SIGBUSKills = ks.SIGBUSKills
	r.WritebackErrors = ks.WritebackErrors
	r.SetBacklogWait(s.BacklogWait())
	return r
}

// BacklogWait merges every SMU's PMSHR backlog wait-time histogram
// (picoseconds per wait) into one distribution.
func (s *System) BacklogWait() *metrics.Histogram {
	h := metrics.NewHistogram()
	for _, u := range s.SMUs {
		h.Merge(u.BacklogWait())
	}
	return h
}

// MeasureSingleFault touches one cold page and returns the end-to-end miss
// latency. With Config.TraceEnabled, Trace also records the miss's
// per-layer spans.
func (s *System) MeasureSingleFault(th *kernel.Thread, va pagetable.VAddr) sim.Time {
	start := s.Eng.Now()
	var end sim.Time = -1
	s.K.Access(th, va, false, func(mmu.Result) { end = s.Eng.Now() })
	s.RunWhile(func() bool { return end < 0 })
	if end < 0 {
		panic("core: single fault never completed")
	}
	return end - start
}
