package smu

import (
	"hwdp/internal/sim"
	"hwdp/internal/ssd"
)

// Timing holds the SMU's component latencies. Defaults reproduce the
// Fig. 11(b) timeline: two register writes and one CAM lookup (1, 1, 5
// cycles) before issue, a 77.16 ns NVMe command memory write, the 1.60 ns
// PCIe doorbell write (ssd.DoorbellWire, which every host shares), then
// after device I/O a 2-cycle completion-unit step, a 97-cycle page-table
// update (three LLC reads+writes) and a 2-cycle MMU notification.
type Timing struct {
	ReqRegWrite sim.Time // per register write carrying the request (×2)
	CAMLookup   sim.Time // PMSHR associative lookup
	PMSHRWrite  sim.Time // entry initialization / PFN write
	FreePageHit sim.Time // pop from the prefetch buffer
	FreePageMem sim.Time // pop exposing a memory round trip (buffer empty)
	CmdWrite    sim.Time // 64 B NVMe command write to memory
	CQHandle    sim.Time // completion-unit protocol handling
	PTUpdate    sim.Time // read+update PTE, PMD and PUD entries
	Notify      sim.Time // broadcast completion to cores / resume MMU
}

// DefaultTiming returns the paper-calibrated latencies.
func DefaultTiming() Timing {
	return Timing{
		ReqRegWrite: sim.Cycles(1),
		CAMLookup:   sim.Cycles(5),
		PMSHRWrite:  sim.Cycles(1),
		FreePageHit: sim.Cycles(1),
		FreePageMem: sim.Nano(90),
		CmdWrite:    sim.Nano(77.16),
		CQHandle:    sim.Cycles(2),
		PTUpdate:    sim.Cycles(97),
		Notify:      sim.Cycles(2),
	}
}

// BeforeDevice is the critical-path latency from the MMU's request to the
// doorbell write, assuming a prefetched free page and no coalescing.
func (t Timing) BeforeDevice() sim.Time {
	return 2*t.ReqRegWrite + t.CAMLookup + t.FreePageHit + t.PMSHRWrite + t.CmdWrite + ssd.DoorbellWire
}

// AfterDevice is the critical-path latency from the device's CQ write to
// the MMU resuming the stalled walk.
func (t Timing) AfterDevice() sim.Time {
	return t.CQHandle + t.PTUpdate + t.Notify
}
