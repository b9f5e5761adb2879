// Anonymous-memory scenario (the paper's Section V extension): a large
// heap-like anonymous mapping whose working set exceeds physical memory.
// First touches are zero-fills — the SMU recognizes the reserved
// first-touch LBA constant and installs a frame without any I/O — and
// dirty pages evicted under pressure are swapped out; refaults swap them
// back in through the same hardware path, with the swap LBA in the PTE.
package main

import (
	"encoding/binary"
	"fmt"

	"hwdp/internal/core"
	"hwdp/internal/kernel"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
)

const (
	heapPages = 3000 // ~12 MiB of anonymous heap
	memMB     = 6    // under half of it fits
)

func run(scheme kernel.Scheme) (elapsed sim.Time, zeroFills, swapIns uint64, ok bool) {
	cfg := core.DefaultConfig(scheme)
	cfg.MemoryBytes = memMB << 20
	cfg.Seed = 11
	sys := cfg.Build()
	va, err := sys.K.MmapAnon(sys.Proc, 0, 0, heapPages,
		pagetable.Prot{Write: true, User: true}, true)
	if err != nil {
		panic(err)
	}
	th := sys.WorkloadThread(0)

	// Phase 1: write a counter into every page (all first touches).
	// Phase 2: read every page back and verify (many are swap-ins by now).
	buf := make([]byte, 8)
	phase := 1
	i := 0
	done := false
	ok = true
	var step func()
	step = func() {
		if i >= heapPages {
			if phase == 1 {
				phase, i = 2, 0
			} else {
				done = true
				return
			}
		}
		addr := va + pagetable.VAddr(i)*4096
		if phase == 1 {
			binary.LittleEndian.PutUint64(buf, uint64(i)*7+1)
			sys.K.Store(th, addr, buf, func(mmu.Result) {
				sys.CPU.UserExec(th.HW, 2000, func() { i++; step() })
			})
		} else {
			sys.K.Load(th, addr, buf, func(mmu.Result) {
				if got := binary.LittleEndian.Uint64(buf); got != uint64(i)*7+1 {
					fmt.Printf("  !! page %d corrupted across swap: %d\n", i, got)
					ok = false
				}
				sys.CPU.UserExec(th.HW, 2000, func() { i++; step() })
			})
		}
	}
	step()
	sys.RunWhile(func() bool { return !done })
	for _, u := range sys.SMUs {
		zeroFills += u.Stats().AnonZeroFill
	}
	for _, d := range sys.Devs {
		swapIns += d.Stats().Reads
	}
	return sys.Eng.Now(), zeroFills, swapIns, ok
}

func main() {
	fmt.Printf("Anonymous heap: %d pages (%.0f MiB) on a %d MiB machine\n",
		heapPages, float64(heapPages)*4096/(1<<20), memMB)
	fmt.Println("write every page, then read every page back (swap-in storm):")
	fmt.Println()
	var times [2]sim.Time
	for i, scheme := range []kernel.Scheme{kernel.OSDP, kernel.HWDP} {
		t, zf, si, ok := run(scheme)
		status := "all pages verified"
		if !ok {
			status = "CORRUPTION"
		}
		fmt.Printf("%-8v %v  (hardware zero-fills: %d, device reads: %d) — %s\n",
			scheme, t, zf, si, status)
		times[i] = t
	}
	fmt.Printf("\nHWDP runs the heap workload %.1f%% faster: first touches cost\n",
		100*(1-float64(times[1])/float64(times[0])))
	fmt.Println("nanoseconds instead of a trap, and swap-ins skip the kernel I/O stack.")
}
