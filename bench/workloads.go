package main

import (
	"errors"
	"fmt"
	"time"

	"hwdp/internal/core"
	"hwdp/internal/fleet"
	"hwdp/internal/fs"
	"hwdp/internal/kernel"
	"hwdp/internal/kvs"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/smu"
	"hwdp/internal/workload"
)

// workloadNames lists the workloads in report order. README.md says why
// each was chosen.
var workloadNames = []string{"fio-hwdp", "fio-osdp", "ycsb-a-hwdp", "fleet-qos"}

// size scales the workloads: measured and warm-up ops per thread for the
// closed-loop FIO and YCSB runs, simulated duration for the fleet. Memory
// and dataset sizes do not scale, so a small run takes the same code paths.
type size struct {
	ops, warmup int
	fleetDur    sim.Time
}

// fullSize is the benchmark's size; the smoke test runs at 1/100 of it.
var fullSize = size{ops: 64000, warmup: 4000, fleetDur: sim.Second}

// Machine and dataset shape shared by the FIO and YCSB workloads: 32 MiB of
// DRAM, a dataset twice that, four threads one per physical core.
const (
	memMB        = 32
	datasetPages = 2 * (memMB << 20) / fs.PageBytes
	threads      = 4
)

// Fleet shape: fleet.DefaultConfig's machine with equal-weight QoS on.
const (
	fleetTenants = 3
	fleetSockets = 2
	fleetThreads = 16
	fleetSkew    = 2.0
	fleetMemMB   = 64
	fleetWrite   = 0.1
	fleetPMSHR   = 2
)

// instance is one workload built on a fresh machine, ready for its timed
// run call.
type instance struct {
	sys *core.System
	as  []workload.Assignment
	opt workload.RunOptions
	// Host seconds spent in core.NewSystem and in creating and mapping
	// the dataset.
	coreS, fsS float64
}

// build assembles the named workload from the simulator's public
// constructors, timing the machine and the dataset set-up separately.
func build(name string, seed uint64, sz size, traced bool) (*instance, error) {
	switch name {
	case "fio-hwdp":
		return buildFIO(kernel.HWDP, seed, sz, traced)
	case "fio-osdp":
		return buildFIO(kernel.OSDP, seed, sz, traced)
	case "ycsb-a-hwdp":
		return buildYCSB(seed, sz, traced)
	case "fleet-qos":
		return buildFleet(seed, sz, traced)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// machineConfig is the figures' evaluation machine at memMB of DRAM.
func machineConfig(scheme kernel.Scheme, seed uint64, traced bool) core.Config {
	cfg := core.DefaultConfig(scheme)
	cfg.MemoryBytes = memMB << 20
	cfg.Seed = seed
	cfg.FSBlocks = datasetPages*4 + 1<<16
	cfg.Kernel.KptedPeriod = memMB * 600 * sim.Microsecond
	cfg.TraceEnabled = traced
	return cfg
}

func newMachine(cfg core.Config) (*core.System, float64, error) {
	start := time.Now()
	sys, err := core.NewSystem(cfg)
	return sys, time.Since(start).Seconds(), err
}

// closedLoop pins one workload thread per physical core, all running w.
func closedLoop(in *instance, w workload.Workload, sz size) {
	for i := 0; i < threads; i++ {
		in.as = append(in.as, workload.Assignment{Th: in.sys.K.NewThread(in.sys.Proc, 2*i), W: w})
	}
	in.opt = workload.RunOptions{OpsPerThread: sz.ops, WarmupOps: sz.warmup}
}

// buildFIO is Fig. 12's configuration: 4 KiB random reads over an mmap'd
// file twice the size of memory, every access a cold miss.
func buildFIO(scheme kernel.Scheme, seed uint64, sz size, traced bool) (*instance, error) {
	sys, coreS, err := newMachine(machineConfig(scheme, seed, traced))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	fio, err := workload.SetupFIO(sys, "fio.dat", datasetPages, sys.FastFlags())
	if err != nil {
		return nil, err
	}
	in := &instance{sys: sys, coreS: coreS, fsS: time.Since(start).Seconds()}
	fio.Cold = true
	closedLoop(in, fio, sz)
	return in, nil
}

// buildYCSB is YCSB-A (50% reads, 50% updates, zipfian keys) over the
// record store, with the table twice the size of memory.
func buildYCSB(seed uint64, sz size, traced bool) (*instance, error) {
	sys, coreS, err := newMachine(machineConfig(kernel.HWDP, seed, traced))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	st, err := kvs.Create(sys.K, sys.FS, sys.Proc, "rocksdb.sst", datasetPages, 0, 0, sys.FastFlags())
	if err != nil {
		return nil, err
	}
	in := &instance{sys: sys, coreS: coreS, fsS: time.Since(start).Seconds()}
	y, err := workload.NewYCSB(sys, st, 'A')
	if err != nil {
		return nil, err
	}
	closedLoop(in, y, sz)
	return in, nil
}

// buildFleet is fleet.DefaultConfig's noisy-neighbour machine with QoS on:
// tenants split 16 threads by zipfian intensity over two sockets, each with
// its own dataset, contending for a 2-entry PMSHR under equal-weight
// admission, for a fixed simulated duration.
func buildFleet(seed uint64, sz size, traced bool) (*instance, error) {
	cfg := core.DefaultConfig(kernel.HWDP)
	cfg.Seed = seed
	cfg.Sockets = fleetSockets
	cfg.MemoryBytes = fleetMemMB << 20
	cfg.PMSHREntries = fleetPMSHR
	cfg.Cores = fleetThreads
	cfg.Kernel.ShardKpoold = true
	cfg.TraceEnabled = traced
	start := time.Now()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	weights := make([]float64, fleetTenants)
	for i := range weights {
		weights[i] = 1
	}
	for _, s := range sys.SMUs {
		s.EnsureTenants(fleetTenants)
		s.SetQoS(smu.QoSConfig{Tenants: fleetTenants, Weights: weights})
	}
	in := &instance{sys: sys, coreS: time.Since(start).Seconds(),
		opt: workload.RunOptions{Duration: sz.fleetDur}}

	start = time.Now()
	pages := int(sys.Mem.Frames()) * 2 / fleetTenants
	hw := 0
	for t, n := range fleet.ThreadCounts(fleetTenants, fleetThreads, fleetSkew) {
		socket := t % fleetSockets
		proc := sys.K.NewProcess()
		f, err := sys.FSs[socket].Create(fmt.Sprintf("tenant%02d.dat", t), pages, fs.SeededInit(seed+uint64(t)))
		if err != nil {
			return nil, err
		}
		base, err := sys.K.Mmap(proc, uint8(socket), 0, f, pagetable.Prot{Write: true, User: true}, sys.FastFlags())
		if err != nil {
			return nil, err
		}
		w := &tenantOp{sys: sys, base: base, gen: workload.Scrambled{
			Gen: workload.NewZipfian(uint64(pages), workload.ZipfTheta), N: uint64(pages)}}
		for i := 0; i < n; i++ {
			th := sys.K.NewThread(proc, 2*hw)
			th.Tenant = t
			in.as = append(in.as, workload.Assignment{Th: th, W: w})
			hw++
		}
	}
	in.fsS = time.Since(start).Seconds()
	return in, nil
}

var errBadAddr = errors.New("access to an unmapped address")

// tenantOp is one fleet access: a zipfian page of the tenant's dataset, the
// FIO per-op cost, then one load or store that may miss.
type tenantOp struct {
	sys  *core.System
	base pagetable.VAddr
	gen  workload.KeyGen
}

// Op implements workload.Workload.
func (w *tenantOp) Op(th *kernel.Thread, rng *sim.Rand, done func(error)) {
	va := w.base + pagetable.VAddr(w.gen.Next(rng))*fs.PageBytes
	write := rng.Float64() < fleetWrite
	w.sys.CPU.Stall(th.HW, workload.FIOOpFixed, func() {
		w.sys.CPU.UserExec(th.HW, workload.FIOOpInstr, func() {
			w.sys.K.Access(th, va, write, func(r mmu.Result) {
				if r.Outcome == mmu.OutcomeBadAddr {
					done(errBadAddr)
					return
				}
				done(nil)
			})
		})
	})
}
