// Command ycsb runs YCSB core workloads (or DBBench readrandom) against
// the mmap-backed record store on the simulated machine, under a
// selectable demand-paging scheme.
//
//	ycsb -workload C -scheme hwdp -threads 4 -ops 5000 -records 16384
//	ycsb -workload dbbench -scheme osdp
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hwdp/internal/core"
	"hwdp/internal/kernel"
	"hwdp/internal/kvs"
	"hwdp/internal/ssd"
	"hwdp/internal/trace"
	"hwdp/internal/workload"
)

func main() {
	wl := flag.String("workload", "C", "YCSB variant A-F, or 'dbbench'")
	schemeFlag := flag.String("scheme", "hwdp", "demand paging scheme: osdp|sw|hwdp")
	device := flag.String("device", "zssd", "device profile: zssd|optane|pmm")
	threads := flag.Int("threads", 4, "client threads")
	ops := flag.Int("ops", 5000, "operations per thread")
	warmup := flag.Int("warmup", 1000, "warmup operations per thread")
	records := flag.Uint64("records", 16384, "record count (4 KiB each)")
	memMB := flag.Int("mem-mb", 32, "physical memory size")
	seed := flag.Uint64("seed", 1, "simulation seed")
	breakdown := flag.Bool("breakdown", false, "print per-layer miss-latency attribution after the run")
	tracePath := flag.String("trace", "", "write per-miss Chrome trace_event JSON to this file")
	flag.Parse()

	var scheme kernel.Scheme
	switch strings.ToLower(*schemeFlag) {
	case "osdp":
		scheme = kernel.OSDP
	case "sw", "swdp", "sw-only":
		scheme = kernel.SWDP
	case "hwdp":
		scheme = kernel.HWDP
	default:
		fail("unknown scheme %q", *schemeFlag)
	}
	var prof ssd.Profile
	switch strings.ToLower(*device) {
	case "zssd":
		prof = ssd.ZSSD
	case "optane":
		prof = ssd.OptaneSSD
	case "pmm":
		prof = ssd.OptaneDCPMM
	default:
		fail("unknown device %q", *device)
	}

	cfg := core.DefaultConfig(scheme)
	cfg.MemoryBytes = uint64(*memMB) << 20
	cfg.Device = prof
	cfg.Seed = *seed
	cfg.TraceEnabled = *breakdown || *tracePath != ""
	cfg.FSBlocks = *records*2 + (1 << 16)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		fail("%v", err)
	}

	st, err := kvs.Create(sys.K, sys.FS, sys.Proc, "store", *records, 0, 0, sys.FastFlags())
	if err != nil {
		fail("%v", err)
	}
	var w workload.Workload
	name := strings.ToUpper(*wl)
	if strings.EqualFold(*wl, "dbbench") {
		w = workload.NewDBBenchReadRandom(sys, st)
		name = "DBBench-readrandom"
	} else {
		if len(name) != 1 {
			fail("workload must be A-F or dbbench")
		}
		y, err := workload.NewYCSB(sys, st, name[0])
		if err != nil {
			fail("%v", err)
		}
		w = y
		name = y.Name
	}

	ths := make([]*kernel.Thread, *threads)
	for i := range ths {
		ths[i] = sys.WorkloadThread(i)
	}
	rs := workload.Run(sys, ths, w,
		workload.RunOptions{OpsPerThread: *ops, WarmupOps: *warmup})
	m := workload.Merge(rs)

	fmt.Printf("%s: scheme=%v device=%s threads=%d records=%d (%.0f MiB) mem=%dMiB\n",
		name, scheme, prof.Name, *threads, *records, float64(*records)*4096/(1<<20), *memMB)
	fmt.Printf("  ops            %d (corrupt reads: %d)\n", m.Ops, m.Errors)
	fmt.Printf("  throughput     %.0f ops/s\n", m.Throughput())
	fmt.Printf("  latency        mean %v   p50 %v   p99 %v\n",
		m.MeanLatency(), core.Dur(m.Lat.Percentile(50)), core.Dur(m.Lat.Percentile(99)))
	var ipc float64
	for _, th := range ths {
		ipc += th.HW.Counters.UserIPC()
	}
	fmt.Printf("  user IPC       %.2f\n", ipc/float64(len(ths)))
	ms := sys.MMU.Stats()
	ks := sys.K.Stats()
	fmt.Printf("  page misses    hw=%d os=%d (major=%d minor=%d sw=%d bounced=%d)\n",
		ms.HWMisses, ms.OSFaults, ks.MajorFaults, ks.MinorFaults, ks.SWFaults, ks.HWBounceFaults)
	fmt.Printf("  memory         evictions=%d writebacks=%d kpted-syncs=%d\n",
		ks.Evictions, ks.Writebacks, ks.KptedSyncs)
	var reads, writes uint64
	for _, d := range sys.Devs {
		ds := d.Stats()
		reads += ds.Reads
		writes += ds.Writes
	}
	fmt.Printf("  device         reads=%d writes=%d\n", reads, writes)

	if *breakdown {
		fmt.Printf("\n%s", sys.Trace.Report())
		if sys.Trace.Kills() > 0 {
			fmt.Printf("\n%s", sys.Trace.FlightDump())
		}
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fail("%v", err)
		}
		werr := trace.WriteChrome(f, trace.Process{Name: scheme.String(), T: sys.Trace})
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fail("%v", werr)
		}
		fmt.Printf("  trace          wrote %s (open in https://ui.perfetto.dev)\n", *tracePath)
	}
	if m.Errors > 0 {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ycsb: "+format+"\n", args...)
	os.Exit(2)
}
