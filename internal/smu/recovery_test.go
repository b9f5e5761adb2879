package smu

import (
	"testing"

	"hwdp/internal/fault"
	"hwdp/internal/nvme"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/ssd"
)

// checkConservation asserts FramesAccepted == FramesInstalled + FramesHeld
// (the invariant the finish-path recycle exists to uphold).
func checkConservation(t *testing.T, s *SMU) {
	t.Helper()
	st := s.Stats()
	held := uint64(s.FramesHeld())
	if st.FramesAccepted != st.FramesInstalled+held {
		t.Fatalf("frame conservation broken: accepted %d != installed %d + held %d (recycled %d)",
			st.FramesAccepted, st.FramesInstalled, held, st.FramesRecycled)
	}
}

func TestTransientErrorRetriedToSuccess(t *testing.T) {
	r := newRig(t, 8)
	// First two attempts complete with a retryable status; the third
	// succeeds within the default 3-retry budget.
	r.dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.Transient, Prob: 1, MaxInjections: 2}))
	req := r.request(0x1000, 9)
	var res Result = -1
	var pte pagetable.Entry
	r.smu.HandleMissArg(req, func(_ any, rr Result, p pagetable.Entry) { res, pte = rr, p }, nil)
	r.eng.Run()
	if res != ResultOK {
		t.Fatalf("res = %v, want ok after retries", res)
	}
	if pte.State() != pagetable.StateResidentUnsynced {
		t.Fatalf("pte state = %v", pte.State())
	}
	st := r.smu.Stats()
	if st.Retries != 2 || st.IOErrors != 2 || st.Handled != 1 {
		t.Fatalf("stats = %+v, want 2 retries / 2 io errors / 1 handled", st)
	}
	if r.smu.Outstanding() != 0 {
		t.Fatal("PMSHR not drained")
	}
	checkConservation(t, r.smu)
}

func TestRetryExhaustionFailsToOSAndRecyclesFrame(t *testing.T) {
	r := newRig(t, 8)
	r.dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.Transient, Prob: 1})) // every attempt fails
	req := r.request(0x2000, 10)
	var res Result = -1
	r.smu.HandleMissArg(req, func(_ any, rr Result, _ pagetable.Entry) { res = rr }, nil)
	r.eng.Run()
	if res != ResultIOError {
		t.Fatalf("res = %v, want io-error after exhaustion", res)
	}
	st := r.smu.Stats()
	wantAttempts := uint64(1 + r.smu.Policy().MaxRetries)
	if st.Retries != wantAttempts-1 || st.IOErrors != wantAttempts {
		t.Fatalf("stats = %+v, want %d attempts", st, wantAttempts)
	}
	if st.FramesRecycled != 1 || st.FramesInstalled != 0 {
		t.Fatalf("recycled %d installed %d, want 1/0", st.FramesRecycled, st.FramesInstalled)
	}
	if r.smu.Outstanding() != 0 {
		t.Fatal("PMSHR leaked")
	}
	checkConservation(t, r.smu)
}

func TestUECCFailsWithoutRetry(t *testing.T) {
	r := newRig(t, 8)
	r.dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.UECC, Prob: 1}))
	req := r.request(0x3000, 11)
	var res Result = -1
	r.smu.HandleMissArg(req, func(_ any, rr Result, _ pagetable.Entry) { res = rr }, nil)
	r.eng.Run()
	if res != ResultIOError {
		t.Fatalf("res = %v", res)
	}
	st := r.smu.Stats()
	if st.Retries != 0 {
		t.Fatalf("retried an unrecoverable error %d times", st.Retries)
	}
	if st.UECCFailures != 1 || st.FramesRecycled != 1 {
		t.Fatalf("stats = %+v", st)
	}
	checkConservation(t, r.smu)
}

func TestDroppedCommandRecoveredByTimeout(t *testing.T) {
	r := newRig(t, 8)
	p := DefaultRetryPolicy()
	p.CmdTimeout = sim.Micro(50)
	r.smu.SetRetryPolicy(p)
	// The first command vanishes inside the device; the retry succeeds.
	r.dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.Drop, Prob: 1, MaxInjections: 1}))
	req := r.request(0x4000, 12)
	var res Result = -1
	r.smu.HandleMissArg(req, func(_ any, rr Result, _ pagetable.Entry) { res = rr }, nil)
	r.eng.Run()
	if res != ResultOK {
		t.Fatalf("res = %v, want ok via timeout + retry", res)
	}
	st := r.smu.Stats()
	if st.Timeouts != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v, want 1 timeout / 1 retry", st)
	}
	if ds := r.dev.Stats(); ds.Aborts != 0 {
		// The drop's completion event still fires (as a no-op) at service
		// time, which is before the 50 µs timeout, so the abort finds
		// nothing to cancel.
		t.Fatalf("aborts = %d, want 0 (drop already consumed)", ds.Aborts)
	}
	if r.dev.Inflight() != 0 {
		t.Fatalf("device inflight = %d", r.dev.Inflight())
	}
	checkConservation(t, r.smu)
}

func TestTimeoutAbortsSlowCommand(t *testing.T) {
	r := newRig(t, 8)
	p := DefaultRetryPolicy()
	p.CmdTimeout = sim.Micro(20) // Z-SSD read is ~10.9 µs; spike makes it ~109 µs
	r.smu.SetRetryPolicy(p)
	r.dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.Spike, Prob: 1, MaxInjections: 1}))
	req := r.request(0x5000, 13)
	var res Result = -1
	r.smu.HandleMissArg(req, func(_ any, rr Result, _ pagetable.Entry) { res = rr }, nil)
	r.eng.Run()
	if res != ResultOK {
		t.Fatalf("res = %v, want ok via abort + retry", res)
	}
	st := r.smu.Stats()
	if st.Timeouts != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if ds := r.dev.Stats(); ds.Aborts != 1 {
		t.Fatalf("aborts = %d, want 1 (spiked command still in flight)", ds.Aborts)
	}
	checkConservation(t, r.smu)
}

func TestCoalescedWaitersAllObserveFailure(t *testing.T) {
	r := newRig(t, 8)
	r.dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.UECC, Prob: 1}))
	req := r.request(0x6000, 14)
	var results []Result
	for i := 0; i < 4; i++ {
		r.smu.HandleMissArg(req, func(_ any, rr Result, _ pagetable.Entry) {
			results = append(results, rr)
		}, nil)
	}
	r.eng.Run()
	if len(results) != 4 {
		t.Fatalf("%d of 4 waiters completed — some hang", len(results))
	}
	for i, rr := range results {
		if rr != ResultIOError {
			t.Fatalf("waiter %d observed %v, want io-error", i, rr)
		}
	}
	if st := r.smu.Stats(); st.Coalesced != 3 {
		t.Fatalf("coalesced = %d", st.Coalesced)
	}
	if r.smu.Outstanding() != 0 {
		t.Fatal("PMSHR leaked")
	}
	checkConservation(t, r.smu)
}

func TestBacklogDrainsThroughFailures(t *testing.T) {
	// A 2-entry PMSHR forces backlogging; with every I/O failing, slots
	// must still recycle so the backlog drains and every requester hears
	// back.
	eng := sim.NewEngine()
	prof := ssd.ZSSD
	prof.JitterFrac = 0
	dev := ssd.New(eng, prof, sim.NewRand(1), nil)
	dev.AddNamespace(nvme.Namespace{ID: 1, Blocks: 1 << 30})
	dev.SetInjector(fault.NewInjector(sim.NewRand(2),
		fault.Rule{Kind: fault.UECC, Prob: 1}))
	s := NewPerCore(eng, 0, 4096, 2, 1)
	s.AttachDevice(0, dev, 100, 1)
	s.Refill(recs(16, 1000))

	tbl := pagetable.New()
	const n = 6
	var results []Result
	for i := 0; i < n; i++ {
		va := pagetable.VAddr(0x10000 + i*0x1000)
		pud, pmd, pte := tbl.Ensure(va)
		blk := pagetable.BlockAddr{LBA: uint64(100 + i)}
		prot := pagetable.Prot{Write: true, User: true}
		pte.Set(pagetable.MakeLBA(blk, prot))
		s.HandleMissArg(Request{PUD: pud, PMD: pmd, PTE: pte, Block: blk, Prot: prot},
			func(_ any, rr Result, _ pagetable.Entry) { results = append(results, rr) }, nil)
	}
	eng.Run()
	if len(results) != n {
		t.Fatalf("%d of %d requests completed", len(results), n)
	}
	for i, rr := range results {
		if rr != ResultIOError {
			t.Fatalf("request %d: %v", i, rr)
		}
	}
	st := s.Stats()
	if st.Backlogged == 0 {
		t.Fatal("no request was backlogged — PMSHR bound not exercised")
	}
	if st.FramesRecycled != n {
		t.Fatalf("recycled %d frames, want %d", st.FramesRecycled, n)
	}
	if s.Outstanding() != 0 {
		t.Fatal("PMSHR leaked")
	}
	checkConservation(t, s)
}

func TestRetryBackoffIsExponential(t *testing.T) {
	r := newRig(t, 8)
	p := RetryPolicy{MaxRetries: 3, Backoff: sim.Micro(10)}
	r.smu.SetRetryPolicy(p)
	r.dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.Transient, Prob: 1}))
	req := r.request(0x7000, 15)
	var res Result = -1
	r.smu.HandleMissArg(req, func(_ any, rr Result, _ pagetable.Entry) { res = rr }, nil)
	start := r.eng.Now()
	r.eng.Run()
	if res != ResultIOError {
		t.Fatalf("res = %v", res)
	}
	// 4 attempts, each ~one device read, plus backoffs 10+20+40 µs.
	elapsed := r.eng.Now() - start
	minWant := 4*ssd.ZSSD.Read4K + sim.Micro(10+20+40)
	if elapsed < minWant {
		t.Fatalf("elapsed %v < %v — backoff not applied exponentially", elapsed, minWant)
	}
	checkConservation(t, r.smu)
}

// TestTimeoutAtMediaDoneAborts pins the order at a tie: with the timeout
// equal to the device time, every attempt's timeout falls exactly when its
// media work ends and fires first, so each abort finds its command — the
// first attempt's, which the device drops, included (the SMU arms its
// timeout before ringing the doorbell). The retries run out.
func TestTimeoutAtMediaDoneAborts(t *testing.T) {
	r := newRig(t, 8)
	p := DefaultRetryPolicy()
	p.CmdTimeout = ssd.ZSSD.Read4K
	r.smu.SetRetryPolicy(p)
	r.dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.Drop, Prob: 1, MaxInjections: 1}))
	var res Result = -1
	r.smu.HandleMissArg(r.request(0x4000, 12), func(_ any, rr Result, _ pagetable.Entry) { res = rr }, nil)
	r.eng.Run()
	if res != ResultIOError {
		t.Fatalf("res = %v, want io-error after every attempt timed out", res)
	}
	attempts := uint64(1 + p.MaxRetries)
	if ds := r.dev.Stats(); ds.Aborts != attempts || ds.InjDropped != 0 {
		t.Fatalf("device aborts %d, dropped %d; want every abort to win its tie (%d, 0)", ds.Aborts, ds.InjDropped, attempts)
	}
	checkConservation(t, r.smu)
}

// TestCommandIDNamesSlot pins the slot-indexed command IDs: a CID carries
// its PMSHR slot in the low bits and is never 0, each submission of a slot
// gets a new one (generations wrap without reaching 0), and a CID that is
// not the slot's current command — a retried attempt's, one after the
// slot retired, or one naming no slot — finds no entry.
func TestCommandIDNamesSlot(t *testing.T) {
	for _, entries := range []int{1, 3, PMSHREntries} {
		s := NewPerCore(sim.NewEngine(), 0, 64, entries, 1)
		e := &s.pmshr[entries-1]
		mask := uint16(1<<s.cidShift - 1)
		first := s.nextCID(e)
		e.cid = first
		if s.lookupCID(first) != e {
			t.Fatalf("%d entries: CID %#x does not find its slot", entries, first)
		}
		seen := map[uint16]bool{}
		for i := 0; i < 1<<16; i++ {
			cid := s.nextCID(e)
			if cid == 0 || int(cid&mask) != e.idx {
				t.Fatalf("%d entries: CID %#x for slot %d", entries, cid, e.idx)
			}
			seen[cid] = true
			if i == 0 {
				e.cid = cid // the retry's command
				if s.lookupCID(first) != nil {
					t.Fatalf("%d entries: stale CID %#x found the retried slot", entries, first)
				}
			}
		}
		if want := 1<<(16-s.cidShift) - 1; len(seen) != want {
			t.Fatalf("%d entries: %d distinct CIDs per slot, want %d", entries, len(seen), want)
		}
		e.cid = 0
		if s.lookupCID(first) != nil || s.lookupCID(0) != nil {
			t.Fatal("a retired slot or CID 0 found an entry")
		}
		if entries == 3 && s.lookupCID(1<<s.cidShift|3) != nil {
			t.Fatal("a CID naming slot 3 of 3 found an entry")
		}
	}
}
