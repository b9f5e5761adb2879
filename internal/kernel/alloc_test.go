package kernel

import (
	"testing"

	"hwdp/internal/mmu"
	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
)

// Allocation and event-heap pins for the OS side of the access path. The
// access gate, the OS block layer and the OS fault carriers are pooled;
// these pins keep a per-access or per-I/O closure from creeping back.
// AllocsPerRun warms the pools with a first run before measuring.

func TestAccessTLBHitAllocationBudget(t *testing.T) {
	r := newRig(t, 64<<20, 512, withScheme(OSDP))
	va, _ := r.mmapFile(t, "f", 4, MmapFlags{})
	if out, _ := r.access(t, r.th, va, false); out != mmu.OutcomeOSFault {
		t.Fatalf("first access: %v, want an OS fault", out)
	}
	done := false
	complete := func(mmu.Result) { done = true }
	got := testing.AllocsPerRun(1000, func() {
		done = false
		r.k.Access(r.th, va, false, complete)
		if !done {
			t.Fatal("TLB hit did not complete synchronously")
		}
	})
	if got != 0 {
		t.Fatalf("Access on a TLB hit allocates %.1f objects/op, want 0", got)
	}
}

func TestBlockIORoundTripAllocationBudget(t *testing.T) {
	// submitIORetry -> doorbell -> device -> completion interrupt ->
	// osInterrupt -> done, with the default block-layer timeout armed and
	// canceled on every I/O.
	r := newRig(t, 64<<20, 512, withScheme(OSDP))
	if r.k.cfg.BlockTimeout == 0 {
		t.Fatal("the default config must arm the block-layer timeout")
	}
	_, f := r.mmapFile(t, "f", 4, MmapFlags{})
	blk, err := r.fsys.Block(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := r.mem.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	st := r.k.storageFor(blk)
	status := -1
	complete := func(s uint16) { status = int(s) }
	got := testing.AllocsPerRun(500, func() {
		status = -1
		r.k.submitIORetry(st, r.th.HW, nvme.OpRead, blk.LBA, frame, nil, complete)
		for status == -1 && r.eng.Step() {
		}
		if status != int(nvme.StatusSuccess) {
			t.Fatalf("read completed with status %d", status)
		}
	})
	if got != 0 {
		t.Fatalf("block I/O round trip allocates %.1f objects/op, want 0", got)
	}
	if n := r.k.Stats().BlockTimeouts; n != 0 {
		t.Fatalf("%d block-layer timeouts fired", n)
	}
}

func TestOSDPFaultsLeaveNoCanceledTimers(t *testing.T) {
	// Every OS read arms the 10 ms block-layer timeout and cancels it at
	// completion. Canceled timers leave the event heap at once, so after
	// many back-to-back major faults the heap holds only live events: the
	// kernel daemons' ticks and the odd in-flight completion.
	const faults = 1000
	r := newRig(t, 64<<20, 512, withScheme(OSDP))
	va, _ := r.mmapFile(t, "f", faults, MmapFlags{})
	for i := 0; i < faults; i++ {
		if out, _ := r.access(t, r.th, va+pagetable.VAddr(i)*4096, false); out != mmu.OutcomeOSFault {
			t.Fatalf("access %d: %v, want an OS fault", i, out)
		}
	}
	if n := r.k.Stats().MajorFaults; n != faults {
		t.Fatalf("major faults = %d, want %d", n, faults)
	}
	if n := r.eng.Pending(); n >= 64 {
		t.Fatalf("event heap holds %d events after %d faults, want < 64", n, faults)
	}
}
