package cpu

import (
	"testing"
	"testing/quick"

	"hwdp/internal/sim"
)

func newCPU(cores int) (*sim.Engine, *CPU) {
	eng := sim.NewEngine()
	return eng, New(eng, cores, DefaultParams())
}

func TestTopology(t *testing.T) {
	_, c := newCPU(8)
	if len(c.Cores()) != 8 || len(c.Threads()) != 16 {
		t.Fatalf("cores=%d threads=%d", len(c.Cores()), len(c.Threads()))
	}
	t0 := c.Thread(0)
	t1 := c.Thread(1)
	if t0.sib != t1 || t1.sib != t0 {
		t.Fatal("siblings wrong")
	}
	if c.Cores()[1].Threads[0] != c.Thread(2) {
		t.Fatal("thread 2 should be on core 1")
	}
}

func TestZeroCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(sim.NewEngine(), 0, DefaultParams())
}

func TestBadThreadIndexPanics(t *testing.T) {
	_, c := newCPU(1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	c.Thread(5)
}

func TestUserExecDuration(t *testing.T) {
	eng, c := newCPU(1)
	th := c.Thread(0)
	th.warmth = 1.0
	done := false
	c.UserExec(th, 2_800_000, func() { done = true }) // 1M cycles at IPC 1.6? no: 2.8M instr / 1.6 IPC = 1.75M cycles
	if th.State() != RunningUser {
		t.Fatalf("state = %v", th.State())
	}
	eng.Run()
	if !done {
		t.Fatal("done not called")
	}
	// 2.8M instructions at IPC 1.6, 2.8GHz: 1.75M cycles = 625us.
	got := eng.Now().Micros()
	if got < 620 || got > 630 {
		t.Fatalf("duration = %vus", got)
	}
	if th.UserInstr != 2_800_000 {
		t.Fatalf("instr = %d", th.UserInstr)
	}
	ipc := th.Counters.UserIPC()
	if ipc < 1.55 || ipc > 1.65 {
		t.Fatalf("ipc = %f", ipc)
	}
}

func TestColdThreadRunsSlower(t *testing.T) {
	run := func(w float64) sim.Time {
		eng := sim.NewEngine()
		p := DefaultParams()
		p.RecoverInstr = 1e15 // freeze warmth so the ratio is exact
		c := New(eng, 1, p)
		th := c.Thread(0)
		th.warmth = w
		c.UserExec(th, 100000, func() {})
		eng.Run()
		return eng.Now()
	}
	warm, cold := run(1.0), run(0.0)
	if cold <= warm {
		t.Fatalf("cold %v not slower than warm %v", cold, warm)
	}
	ratio := float64(cold) / float64(warm)
	p := DefaultParams()
	want := 1 / p.IPCFloor
	if ratio < want*0.95 || ratio > want*1.05 {
		t.Fatalf("cold/warm = %f, want ~%f", ratio, want)
	}
}

func TestKernelExecPollutes(t *testing.T) {
	eng, c := newCPU(1)
	th := c.Thread(0)
	th.warmth = 1.0
	c.KernelExec(th, sim.Micro(10), func() {})
	eng.Run()
	if th.warmth >= 1.0 {
		t.Fatalf("warmth not decayed: %f", th.warmth)
	}
	if th.KernelInstr == 0 || th.KernelTime != sim.Micro(10) {
		t.Fatalf("kernel counters: %d %v", th.KernelInstr, th.KernelTime)
	}
	// 10us at 2.8GHz, kernel IPC 1.0 => ~28000 instructions.
	if th.KernelInstr < 27000 || th.KernelInstr > 29000 {
		t.Fatalf("kernel instr = %d", th.KernelInstr)
	}
}

func TestPollutionMemoMatchesExp(t *testing.T) {
	// Instruction counts that share a memo slot evict each other; every
	// lookup, hit or miss, returns exactly the recomputed factor.
	_, c := newCPU(1)
	for _, instr := range []uint64{0, 5, sharesSlot(5), 5, 28000, sharesSlot(28000), 28000} {
		want := expNeg(float64(instr) / c.params.PolluteInstr)
		if got := c.pollution(instr); got != want {
			t.Fatalf("pollution(%d) = %v, want %v", instr, got, want)
		}
	}
}

func TestRecoveryMemoMatchesExp(t *testing.T) {
	// A sweep over every chunk size a quantum can take, run twice so the
	// second pass hits the memo, plus chunks that share a slot with
	// userQuantum and with each other, interleaved so each evicts the
	// other: every lookup returns exactly the recomputed factor.
	_, c := newCPU(1)
	check := func(chunk uint64) {
		t.Helper()
		want := expNeg(float64(chunk) / c.params.RecoverInstr)
		if got := c.recoveryFactor(chunk); got != want {
			t.Fatalf("recoveryFactor(%d) = %v, want %v", chunk, got, want)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for chunk := uint64(1); chunk <= userQuantum; chunk++ {
			check(chunk)
		}
	}
	for _, chunk := range []uint64{userQuantum, sharesSlot(userQuantum), userQuantum,
		7232, sharesSlot(7232), 7232, sharesSlot(sharesSlot(7232)), userQuantum, 7232} {
		check(chunk)
	}
}

// sharesSlot returns the next count after n that lands in n's memo slot.
func sharesSlot(n uint64) uint64 {
	m := n + 1
	for memoSlot(m) != memoSlot(n) {
		m++
	}
	return m
}

// TestRecoveryMemoKeepsOpSizesApart alternates the chunk sizes the
// evaluation's ops run in — userQuantum and the remainders of FIO (8,000),
// YCSB (40,000), db_bench (26,000) and Fig. 16's mcf-, lbm- and xz-like
// ops (20,000, 60,000 and 140,000 instructions) — and counts the lookups
// that recompute math.Exp: only each size's first.
func TestRecoveryMemoKeepsOpSizesApart(t *testing.T) {
	_, c := newCPU(1)
	var sizes []uint64
	for _, op := range []uint64{8000, 40_000, 26_000, 20_000, 60_000, 140_000} {
		sizes = append(sizes, op%userQuantum)
	}
	sizes = append(sizes, userQuantum)
	recomputes := 0
	for round := 0; round < 100; round++ {
		for _, n := range sizes {
			if c.recovery[memoSlot(n)].key != n+1 {
				recomputes++
			}
			if got, want := c.recoveryFactor(n), expNeg(float64(n)/c.params.RecoverInstr); got != want {
				t.Fatalf("recoveryFactor(%d) = %v, want %v", n, got, want)
			}
		}
	}
	if recomputes != len(sizes) {
		t.Fatalf("%d recomputes over 100 rounds of %v, want %d (one per size)", recomputes, sizes, len(sizes))
	}
}

func TestUserExecRecoversWarmth(t *testing.T) {
	eng, c := newCPU(1)
	th := c.Thread(0)
	th.warmth = 0.1
	c.UserExec(th, 1_000_000, func() {})
	eng.Run()
	if th.warmth < 0.99 {
		t.Fatalf("warmth after 1M instr = %f", th.warmth)
	}
}

func TestPollutionLowersIPCAndRaisesMisses(t *testing.T) {
	// Two runs of the same user work; one interleaves kernel intervention.
	run := func(kernel bool) Counters {
		eng, c := newCPU(1)
		th := c.Thread(0)
		th.warmth = 1.0
		ops := 0
		var step func()
		step = func() {
			ops++
			if ops > 200 {
				return
			}
			if kernel {
				c.KernelExec(th, sim.Micro(8), func() {
					c.UserExec(th, 20000, step)
				})
			} else {
				c.UserExec(th, 20000, step)
			}
		}
		step()
		eng.Run()
		return th.Counters
	}
	clean, dirty := run(false), run(true)
	if dirty.UserIPC() >= clean.UserIPC() {
		t.Fatalf("polluted IPC %f >= clean %f", dirty.UserIPC(), clean.UserIPC())
	}
	if dirty.BranchMiss <= clean.BranchMiss {
		t.Fatal("pollution did not raise branch misses")
	}
	if dirty.LLCMiss <= clean.LLCMiss {
		t.Fatal("pollution did not raise LLC misses")
	}
}

func TestSMTSharingSlowsBoth(t *testing.T) {
	solo := func() sim.Time {
		eng, c := newCPU(1)
		th := c.Thread(0)
		th.warmth = 1
		c.UserExec(th, 1_000_000, func() {})
		eng.Run()
		return eng.Now()
	}()
	eng, c := newCPU(1)
	a, b := c.Thread(0), c.Thread(1)
	a.warmth, b.warmth = 1, 1
	var aEnd sim.Time
	c.UserExec(a, 1_000_000, func() { aEnd = eng.Now() })
	c.UserExec(b, 1_000_000, func() {})
	eng.Run()
	if aEnd <= solo {
		t.Fatalf("SMT co-run %v not slower than solo %v", aEnd, solo)
	}
	ratio := float64(aEnd) / float64(solo)
	want := 1 / DefaultParams().SMTShare
	if ratio < want*0.9 || ratio > want*1.1 {
		t.Fatalf("smt slowdown = %f, want ~%f", ratio, want)
	}
}

func TestStalledSiblingFreesIssueSlots(t *testing.T) {
	// Sibling stalled (HWDP miss): co-runner executes at solo speed.
	eng, c := newCPU(1)
	a, b := c.Thread(0), c.Thread(1)
	a.warmth, b.warmth = 1, 1
	c.Stall(a, sim.Millisecond, func() {})
	var bEnd sim.Time
	c.UserExec(b, 1_000_000, func() { bEnd = eng.Now() })
	eng.Run()
	soloDur := sim.Time(float64(1_000_000) / DefaultParams().BaseIPC / DefaultParams().ClockHz * 1e12)
	if diff := float64(bEnd-soloDur) / float64(soloDur); diff > 0.01 || diff < -0.01 {
		t.Fatalf("co-runner of stalled sibling took %v, want ~%v", bEnd, soloDur)
	}
	if a.StallTime != sim.Millisecond {
		t.Fatalf("stall time = %v", a.StallTime)
	}
}

func TestStallDoesNotPollute(t *testing.T) {
	eng, c := newCPU(1)
	th := c.Thread(0)
	th.warmth = 0.8
	c.Stall(th, sim.Micro(100), func() {})
	eng.Run()
	if th.warmth != 0.8 {
		t.Fatalf("stall changed warmth: %f", th.warmth)
	}
	if th.KernelInstr != 0 {
		t.Fatal("stall executed instructions")
	}
}

func TestOpenEndedStall(t *testing.T) {
	// StartStall/EndStall bracket a stall whose length the caller learns
	// only when it ends; the time lands in StallTime and the thread idles.
	eng, c := newCPU(1)
	th := c.Thread(0)
	eng.Post(sim.Micro(5), func() { c.StartStall(th) })
	eng.Post(sim.Micro(12), func() {
		if th.State() != Stalled {
			t.Fatalf("state = %v during the stall", th.State())
		}
		c.EndStall(th)
	})
	eng.Run()
	if th.StallTime != sim.Micro(7) || th.State() != Idle {
		t.Fatalf("stall time = %v, state = %v; want 7us, idle", th.StallTime, th.State())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on EndStall without an open stall")
		}
	}()
	c.EndStall(th)
}

func TestBusyThreadPanics(t *testing.T) {
	eng, c := newCPU(1)
	th := c.Thread(0)
	c.UserExec(th, 1000, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on double-dispatch")
		}
		eng.Run()
	}()
	c.UserExec(th, 1000, func() {})
}

func TestCountersAdd(t *testing.T) {
	a := Counters{UserInstr: 1, KernelInstr: 2, UserTime: 3, KernelTime: 4,
		StallTime: 5, L1Miss: 6, L2Miss: 7, LLCMiss: 8, BranchMiss: 9, ContextSwaps: 10}
	b := a
	a.Add(b)
	if a.UserInstr != 2 || a.ContextSwaps != 20 || a.StallTime != 10 {
		t.Fatalf("add: %+v", a)
	}
}

func TestContextSwitchAccounting(t *testing.T) {
	_, c := newCPU(1)
	th := c.Thread(0)
	th.AccountContextSwitch()
	th.AccountContextSwitch()
	if th.ContextSwaps != 2 {
		t.Fatal("context switches not counted")
	}
}

func TestWarmthBoundsProperty(t *testing.T) {
	// Warmth always stays in [0,1] under any interleaving of kernel and
	// user slices.
	f := func(slices []uint16) bool {
		eng, c := newCPU(1)
		th := c.Thread(0)
		i := 0
		var step func()
		step = func() {
			if i >= len(slices) || i > 100 {
				return
			}
			s := slices[i]
			i++
			if s%2 == 0 {
				c.UserExec(th, uint64(s)+1, step)
			} else {
				c.KernelExec(th, sim.Time(s)*sim.Nanosecond, step)
			}
		}
		step()
		eng.Run()
		return th.warmth >= 0 && th.warmth <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUserIPCEmptyCounters(t *testing.T) {
	var c Counters
	if c.UserIPC() != 0 {
		t.Fatal("empty IPC should be 0")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[ThreadState]string{
		Idle: "idle", RunningUser: "user", RunningKernel: "kernel",
		Stalled: "stalled", ThreadState(9): "?",
	} {
		if s.String() != want {
			t.Errorf("%d = %q", s, s.String())
		}
	}
}
