// Command fio is a standalone FIO-like microbenchmark over the simulated
// machine: random 4 KiB reads (optionally mixed with writes) on a
// memory-mapped file, under a selectable demand-paging scheme and device.
//
//	fio -scheme hwdp -threads 4 -ops 5000 -file-mb 64 -mem-mb 32
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hwdp/internal/core"
	"hwdp/internal/kernel"
	"hwdp/internal/ssd"
	"hwdp/internal/trace"
	"hwdp/internal/workload"
)

func main() {
	schemeFlag := flag.String("scheme", "hwdp", "demand paging scheme: osdp|sw|hwdp")
	device := flag.String("device", "zssd", "device profile: zssd|optane|pmm")
	threads := flag.Int("threads", 1, "worker threads (one per physical core)")
	ops := flag.Int("ops", 5000, "operations per thread")
	warmup := flag.Int("warmup", 500, "warmup operations per thread (not measured)")
	fileMB := flag.Int("file-mb", 64, "mapped file size")
	memMB := flag.Int("mem-mb", 32, "physical memory size")
	writeFrac := flag.Float64("write-frac", 0, "fraction of ops that are writes")
	cold := flag.Bool("cold", false, "touch only cold pages (pure miss latency)")
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
		fmt.Fprintf(os.Stderr, "fio: unknown scheme %q\n", *schemeFlag)
		os.Exit(2)
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
		fmt.Fprintf(os.Stderr, "fio: unknown device %q\n", *device)
		os.Exit(2)
	}

	cfg := core.DefaultConfig(scheme)
	cfg.MemoryBytes = uint64(*memMB) << 20
	cfg.Device = prof
	cfg.Seed = *seed
	cfg.TraceEnabled = *breakdown || *tracePath != ""
	pages := *fileMB << 8 // MB -> 4KiB pages
	cfg.FSBlocks = uint64(pages) + (1 << 16)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fio:", err)
		os.Exit(2)
	}

	fio, err := workload.SetupFIO(sys, "fio.dat", pages, sys.FastFlags())
	if err != nil {
		fmt.Fprintln(os.Stderr, "fio:", err)
		os.Exit(1)
	}
	fio.WriteFrac = *writeFrac
	fio.Cold = *cold

	ths := make([]*kernel.Thread, *threads)
	for i := range ths {
		ths[i] = sys.WorkloadThread(i)
	}
	rs := workload.Run(sys, ths, fio,
		workload.RunOptions{OpsPerThread: *ops, WarmupOps: *warmup})
	m := workload.Merge(rs)

	fmt.Printf("fio: scheme=%v device=%s threads=%d file=%dMiB mem=%dMiB cold=%v\n",
		scheme, prof.Name, *threads, *fileMB, *memMB, *cold)
	fmt.Printf("  ops            %d (errors %d)\n", m.Ops, m.Errors)
	fmt.Printf("  throughput     %.0f ops/s (%.1f MiB/s)\n",
		m.Throughput(), m.Throughput()*4096/(1<<20))
	fmt.Printf("  latency mean   %v\n", m.MeanLatency())
	fmt.Printf("  latency p50    %v\n", core.Dur(m.Lat.Percentile(50)))
	fmt.Printf("  latency p99    %v\n", core.Dur(m.Lat.Percentile(99)))
	ms := sys.MMU.Stats()
	ks := sys.K.Stats()
	fmt.Printf("  faults         hw=%d os=%d (major=%d minor=%d bounced=%d)\n",
		ms.HWMisses, ms.OSFaults, ks.MajorFaults, ks.MinorFaults, ks.HWBounceFaults)
	fmt.Printf("  memory         evictions=%d writebacks=%d\n", ks.Evictions, ks.Writebacks)
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
			fmt.Fprintln(os.Stderr, "fio:", err)
			os.Exit(1)
		}
		werr := trace.WriteChrome(f, trace.Process{Name: scheme.String(), T: sys.Trace})
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "fio:", werr)
			os.Exit(1)
		}
		fmt.Printf("  trace          wrote %s (open in https://ui.perfetto.dev)\n", *tracePath)
	}
}
