package cpu

import (
	"fmt"
	"testing"

	"hwdp/internal/sim"
)

// tailAction is one step of the tailed thread's schedule: a segment with a
// kernel tail, run either fused or as the two calls it replaces, then a
// gap before the next step.
type tailAction struct {
	user   bool     // UserThenKernel; otherwise KernelThenKernel
	instr  uint64   // the user part's instructions
	d1, d2 sim.Time // the first kernel part (KernelThenKernel) and the tail
	gap    sim.Time
	poke   int    // at the boundary: 0 nothing, 1 the sibling starts a slice, 2 its kernel work ends
	pokeN  uint64 // the instructions of poke 1's slice
}

// tailRead is what one reader sees: the time, who read, and both threads'
// counters, warmth and state, read through the CPU.
type tailRead struct {
	at       sim.Time
	who      string
	counters [2]Counters
	warmth   [2]float64
	state    [2]ThreadState
}

// tailMachine is one single-core CPU on which thread 0 runs tailed
// segments and thread 1 is a busy sibling that runs user slices.
type tailMachine struct {
	eng   *sim.Engine
	c     *CPU
	two   bool // run each segment as the two calls it replaces
	reads []tailRead

	// The sibling runs its own schedule; a boundary poke may borrow it
	// while it is between steps, and its next step then waits for the
	// poke's work to end.
	sibBusy, sibWaiting bool
	sibStep             int
	sibNext             func()
}

func newTailMachine(two bool) *tailMachine {
	eng, c := newCPU(1)
	for _, t := range c.threads {
		t.warmth = 0.6
	}
	return &tailMachine{eng: eng, c: c, two: two}
}

func (m *tailMachine) read(who string) {
	r := tailRead{at: m.eng.Now(), who: who}
	for i := range r.counters {
		t := m.c.Thread(i)
		r.counters[i], r.warmth[i], r.state[i] = t.Counters, t.Warmth(), t.State()
	}
	m.reads = append(m.reads, r)
}

// segment runs a on t, fused or as two calls.
func (m *tailMachine) segment(t *HWThread, a tailAction, done func()) {
	c := m.c
	switch {
	case m.two && a.user:
		c.UserExec(t, a.instr, func() { c.KernelExec(t, a.d2, done) })
	case m.two:
		c.KernelExec(t, a.d1, func() { c.KernelExec(t, a.d2, done) })
	case a.user:
		c.UserThenKernel(t, a.instr, a.d2, done)
	default:
		c.KernelThenKernel(t, a.d1, a.d2, done)
	}
}

// plannedBoundary returns where a segment that starts now on t would
// switch to its tail if nothing on the core changed: the arithmetic
// UserExec plans with, on state both machines share.
func (m *tailMachine) plannedBoundary(t *HWThread, a tailAction) sim.Time {
	if !a.user {
		return m.eng.Now() + a.d1
	}
	end, w, f := m.eng.Now(), t.warmth, m.c.smtFactor(t)
	for left := a.instr; ; {
		chunk := min(left, userQuantum)
		q := m.c.planQuantum(w, chunk, f)
		end, w, left = end+q.dur, q.warmth, left-chunk
		if left == 0 {
			return end
		}
	}
}

// borrowSibling runs work on the sibling if it is between steps.
func (m *tailMachine) borrowSibling(work func(done func())) {
	if m.sibBusy {
		return
	}
	m.sibBusy = true
	work(func() {
		m.read("poke")
		m.sibBusy = false
		if m.sibWaiting {
			m.sibWaiting = false
			m.sibNext()
		}
	})
}

// run drives thread 0 through tailed and the sibling through its user
// slices, and returns every read.
func (m *tailMachine) run(tailed []tailAction, sib []action) []tailRead {
	t, s := m.c.threads[0], m.c.threads[1]
	step := 0
	var next func()
	next = func() {
		if step >= len(tailed) {
			return
		}
		a := tailed[step]
		boundary := m.plannedBoundary(t, a)
		now := m.eng.Now()
		m.segment(t, a, func() {
			m.read(fmt.Sprint("segment ", step))
			step++
			m.eng.Post(a.gap, next)
		})
		// A poke is posted after the segment, as a later event at the
		// boundary is: the two calls' first end fires before it. A
		// sibling that starts issuing re-splits a segment with quanta
		// still to start, and its boundary moves.
		switch a.poke {
		case 1:
			m.eng.Post(boundary-now, func() {
				m.borrowSibling(func(done func()) { m.c.UserExec(s, a.pokeN, done) })
			})
		case 2:
			m.borrowSibling(func(done func()) { m.c.KernelExec(s, boundary-now, done) })
		}
		if a.d2 >= 2 {
			m.eng.Post(boundary+a.d2/2-now, func() { m.read("mid-tail") })
		}
	}
	m.sibNext = func() {
		if m.sibStep >= len(sib) {
			return
		}
		if m.sibBusy {
			m.sibWaiting = true
			return
		}
		a := sib[m.sibStep]
		m.sibBusy = true
		m.c.UserExec(s, a.instr, func() {
			m.read("sibling")
			m.sibBusy = false
			m.sibStep++
			m.eng.Post(a.gap, m.sibNext)
		})
	}
	next()
	m.sibNext()
	m.eng.Run()
	return m.reads
}

// randomTailed draws n tailed segments: user parts of 0 to 200,000
// instructions (up to 25 quanta, past the kept plans), kernel parts of
// up to 5 µs, a third of each zero-length gap, and a boundary poke on two
// thirds.
func randomTailed(r *sim.Rand, n int) []tailAction {
	as := make([]tailAction, n)
	for i := range as {
		a := tailAction{user: r.Intn(3) > 0, poke: r.Intn(3)}
		if a.user {
			a.instr = uint64(r.Intn(200_001))
		} else {
			a.d1 = sim.Time(r.Int63n(int64(5 * sim.Microsecond)))
		}
		a.d2 = sim.Time(r.Int63n(int64(5 * sim.Microsecond)))
		a.pokeN = uint64(r.Intn(40_001))
		if r.Intn(3) > 0 {
			a.gap = sim.Time(r.Int63n(int64(20 * sim.Microsecond)))
		}
		as[i] = a
	}
	return as
}

// randomSibling draws n sibling user slices of up to 50,000 instructions
// with gaps of up to 30 µs.
func randomSibling(r *sim.Rand, n int) []action {
	as := make([]action, n)
	for i := range as {
		as[i] = action{instr: uint64(r.Intn(50_001))}
		if r.Intn(2) > 0 {
			as[i].gap = sim.Time(r.Int63n(int64(30 * sim.Microsecond)))
		}
	}
	return as
}

// checkTailSame runs the schedules with fused segments and with two
// calls each, and fails on the first read that differs in any bit.
func checkTailSame(t *testing.T, tailed []tailAction, sib []action) {
	t.Helper()
	want := newTailMachine(true).run(tailed, sib)
	got := newTailMachine(false).run(tailed, sib)
	if len(got) != len(want) {
		t.Fatalf("fused run made %d reads, two calls %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("read %d:\n  fused     %+v\n  two calls %+v", k, got[k], want[k])
		}
	}
	if n := len(want); n < len(tailed) {
		t.Fatalf("only %d reads for %d segments", n, len(tailed))
	}
}

func TestKernelTailMatchesTwoCallsRandom(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 50
	}
	for seed := 1; seed <= seeds; seed++ {
		r := sim.NewRand(uint64(seed))
		tailed, sib := randomTailed(r, 30), randomSibling(r, 40)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkTailSame(t, tailed, sib) })
	}
}

func TestKernelTailMatchesTwoCallsCases(t *testing.T) {
	us := sim.Microsecond
	scan := uint64(16 * 9000) // YCSB-E's longest scan: 18 quanta, past the kept plans
	for _, tc := range []struct {
		name   string
		tailed []tailAction
		sib    []action
	}{
		{"a YCSB op, sibling idle", []tailAction{
			{user: true, instr: 40_000, d2: 800 * sim.Nanosecond},
		}, nil},
		{"a YCSB op, sibling starts at the boundary", []tailAction{
			{user: true, instr: 40_000, d2: 800 * sim.Nanosecond, poke: 1, pokeN: 8000},
		}, nil},
		{"a one-quantum op, sibling's kernel work ends at the boundary", []tailAction{
			{user: true, instr: 8000, d2: 800 * sim.Nanosecond, poke: 2},
			{user: true, instr: 8000, d2: 800 * sim.Nanosecond, poke: 2},
		}, nil},
		{"a scan past the kept plans, sibling flipping", []tailAction{
			{user: true, instr: scan, d2: 800 * sim.Nanosecond},
			{user: true, instr: scan, d2: 3 * us, poke: 1, pokeN: 20_000},
		}, []action{
			{instr: 8000, gap: 3 * us}, {instr: 20_000, gap: 11 * us}, {instr: 100, gap: 2 * us},
			{instr: 40_000, gap: 17 * us}, {instr: 8000},
		}},
		{"kernel then kernel, sibling busy", []tailAction{
			{d1: 1500 * sim.Nanosecond, d2: 1200 * sim.Nanosecond, poke: 1, pokeN: 9000},
			{d1: 0, d2: 0},
			{d1: 2 * us, d2: 0, poke: 2},
		}, []action{{instr: 30_000}, {instr: 8000, gap: us}}},
		{"empty user part", []tailAction{
			{user: true, instr: 0, d2: us},
			{user: true, instr: 0, d2: 0},
		}, []action{{instr: 16_000}}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkTailSame(t, tc.tailed, tc.sib) })
	}
}

func TestKernelTailReportsKernelFromBoundary(t *testing.T) {
	eng, c := newCPU(1)
	th := c.threads[0]
	var end sim.Time
	c.UserThenKernel(th, 3*userQuantum, sim.Microsecond, func() { end = eng.Now() })
	boundary := th.slice.endAt - sim.Microsecond
	for _, at := range []sim.Time{boundary - 1, boundary, boundary + 1} {
		at := at
		eng.Post(at, func() {
			want := RunningUser
			if at >= boundary {
				want = RunningKernel
			}
			if s := th.State(); s != want {
				t.Errorf("state at boundary%+d ps: %v, want %v", at-boundary, s, want)
			}
		})
	}
	eng.Run()
	if end != boundary+sim.Microsecond || th.State() != Idle {
		t.Fatalf("ended at %v in state %v, want %v idle", end, th.State(), boundary+sim.Microsecond)
	}
}

// BenchmarkUserThenKernel times one fused segment from the call to its
// completion: a YCSB op's 40,000 user instructions and 800 ns of syscall
// work, with the SMT sibling idle and with it running back-to-back
// one-quantum slices, and a 144,000-instruction scan, past the kept plans.
func BenchmarkUserThenKernel(b *testing.B) {
	for _, bc := range []struct {
		name  string
		instr uint64
		busy  bool
	}{
		{"5quanta/idle-sibling", 40000, false},
		{"5quanta/busy-sibling", 40000, true},
		{"18quanta/idle-sibling", 144000, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng, c := newCPU(1)
			th, sib := c.Thread(0), c.Thread(1)
			if bc.busy {
				var loop func()
				loop = func() { c.UserExec(sib, 8000, loop) }
				loop()
			}
			done := false
			fin := func() { done = true }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done = false
				c.UserThenKernel(th, bc.instr, 800*sim.Nanosecond, fin)
				for !done {
					eng.Step()
				}
			}
		})
	}
}
