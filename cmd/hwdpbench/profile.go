package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles starts a CPU profile written to cpuPath and arranges for an
// allocation profile at memPath (either path may be empty to skip it). The
// returned stop function ends the CPU profile and writes the allocation
// profile; call it once, before the process exits. Read both with
// `go tool pprof`.
func startProfiles(cpuPath, memPath string) (stop func()) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "hwdpbench: cpu profile:", err)
			}
		}
		if memPath != "" {
			if err := writeAllocProfile(memPath); err != nil {
				fmt.Fprintln(os.Stderr, "hwdpbench: memory profile:", err)
			}
		}
	}
}

// writeAllocProfile writes the allocation profile (every allocation since
// the process started, plus the live heap after a GC) to path.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
