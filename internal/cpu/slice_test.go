package cpu

import (
	"fmt"
	"testing"

	"hwdp/internal/sim"
)

// chainCPU is the reference the fused slices are checked against: the
// CPU as it ran before, with every userQuantum of a UserExec its own
// engine event that resamples the sibling's state when it fires, and
// every state change a plain assignment.
type chainCPU struct{ *CPU }

func (c chainCPU) UserExec(t *HWThread, instr uint64, done func()) {
	if t.state != Idle {
		panic(fmt.Sprintf("cpu: UserExec on thread %d in state %v", t.ID, t.state))
	}
	t.state = RunningUser
	c.userChunk(t, instr, done)
}

func (c chainCPU) userChunk(t *HWThread, remaining uint64, done func()) {
	p := &c.params
	chunk := remaining
	if chunk > userQuantum {
		chunk = userQuantum
	}
	w := t.warmth
	ipc := c.userIPCAt(w) * c.smtFactor(t)
	dur := sim.Time(float64(chunk) / ipc / p.ClockHz * 1e12)
	if dur < sim.CyclePS {
		dur = sim.CyclePS
	}
	cold := 1 - w
	t.L1Miss += uint64(float64(chunk) * (p.L1MissBase + p.L1MissCold*cold))
	t.L2Miss += uint64(float64(chunk) * (p.L2MissBase + p.L2MissCold*cold))
	t.LLCMiss += uint64(float64(chunk) * (p.LLCMissBase + p.LLCMissCold*cold))
	t.BranchMiss += uint64(float64(chunk) * (p.BranchMissBase + p.BranchMissCold*cold))
	t.UserInstr += chunk
	t.UserTime += dur
	t.warmth = 1 - (1-w)*c.recoveryFactor(chunk)
	c.eng.Post(dur, func() {
		if remaining > chunk {
			c.userChunk(t, remaining-chunk, done)
			return
		}
		t.state = Idle
		done()
	})
}

func (c chainCPU) KernelExec(t *HWThread, dur sim.Time, done func()) {
	if dur < 0 {
		dur = 0
	}
	instr := uint64(float64(dur.ToCycles()) * c.params.KernelIPC)
	t.KernelInstr += instr
	t.KernelTime += dur
	t.warmth *= c.pollution(instr)
	t.state = RunningKernel
	c.eng.Post(dur, func() { t.state = Idle; done() })
}

func (c chainCPU) Stall(t *HWThread, dur sim.Time, done func()) {
	t.StallTime += dur
	t.state = Stalled
	c.eng.Post(dur, func() { t.state = Idle; done() })
}

func (c chainCPU) StartStall(t *HWThread) {
	t.state = Stalled
	t.stallOpen = true
	t.stallStart = c.eng.Now()
}

func (c chainCPU) EndStall(t *HWThread) {
	t.stallOpen = false
	t.StallTime += c.eng.Now() - t.stallStart
	t.state = Idle
}

// executor is the API both implementations share.
type executor interface {
	UserExec(t *HWThread, instr uint64, done func())
	KernelExec(t *HWThread, dur sim.Time, done func())
	Stall(t *HWThread, dur sim.Time, done func())
	StartStall(t *HWThread)
	EndStall(t *HWThread)
}

// action is one step of a thread's schedule: run it, then wait gap
// before the next.
type action struct {
	kind  int // 0 UserExec, 1 KernelExec, 2 Stall, 3 StartStall/EndStall
	instr uint64
	dur   sim.Time
	gap   sim.Time
}

// snapshot is what one implementation reports when an action completes:
// the time, and both threads' counters and warmth read through the CPU.
type snapshot struct {
	thread, step int
	at           sim.Time
	counters     [2]Counters
	warmth       [2]float64
}

// machine is one single-core CPU under either implementation.
type machine struct {
	eng   *sim.Engine
	c     *CPU
	x     executor
	chain bool
}

func newMachine(chain bool) *machine {
	eng, c := newCPU(1)
	m := &machine{eng: eng, c: c, x: c, chain: chain}
	if chain {
		m.x = chainCPU{c}
	}
	for _, t := range c.threads {
		t.warmth = 0.6
	}
	return m
}

// read returns hardware thread i's counters and warmth as a reader sees
// them: through CPU.Thread, which charges a fused slice up to Now. The
// chain charges each quantum when its event fires, so it reads the fields.
func (m *machine) read(i int) (Counters, float64) {
	if m.chain {
		t := m.c.threads[i]
		return t.Counters, t.warmth
	}
	t := m.c.Thread(i)
	cs := t.Counters
	return cs, t.Warmth()
}

func (m *machine) snap(thread, step int) snapshot {
	s := snapshot{thread: thread, step: step, at: m.eng.Now()}
	for i := range s.counters {
		s.counters[i], s.warmth[i] = m.read(i)
	}
	return s
}

// run drives each hardware thread through its schedule and returns one
// snapshot per completed action, per thread.
func (m *machine) run(scheds [2][]action) [2][]snapshot {
	var out [2][]snapshot
	for i := range scheds {
		i, t := i, m.c.threads[i]
		step := 0
		var next func()
		next = func() {
			if step >= len(scheds[i]) {
				return
			}
			a := scheds[i][step]
			done := func() {
				out[i] = append(out[i], m.snap(i, step))
				step++
				if a.gap > 0 {
					m.eng.Post(a.gap, next)
				} else {
					next()
				}
			}
			switch a.kind {
			case 0:
				m.x.UserExec(t, a.instr, done)
			case 1:
				m.x.KernelExec(t, a.dur, done)
			case 2:
				m.x.Stall(t, a.dur, done)
			case 3:
				m.x.StartStall(t)
				m.eng.Post(a.dur, func() { m.x.EndStall(t); done() })
			}
		}
		next()
	}
	m.eng.Run()
	return out
}

// randomSchedule draws n actions: UserExec of 0 to 200,000 instructions
// (up to 25 quanta), and kernel work and stalls of up to 60 µs, with
// picosecond-grained durations and gaps, a third of them zero.
func randomSchedule(r *sim.Rand, n int) []action {
	as := make([]action, n)
	for i := range as {
		a := action{kind: r.Intn(4)}
		switch a.kind {
		case 0:
			a.instr = uint64(r.Intn(200_001))
		default:
			a.dur = sim.Time(r.Int63n(int64(60 * sim.Microsecond)))
		}
		if r.Intn(3) > 0 {
			a.gap = sim.Time(r.Int63n(int64(20 * sim.Microsecond)))
		}
		as[i] = a
	}
	return as
}

// checkSame runs scheds on the chain and on the fused CPU and fails on
// the first snapshot that differs in any bit.
func checkSame(t *testing.T, scheds [2][]action) {
	t.Helper()
	want := newMachine(true).run(scheds)
	got := newMachine(false).run(scheds)
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("thread %d completed %d actions, chain %d", i, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("thread %d action %d (%+v):\n  fused %+v\n  chain %+v",
					i, k, scheds[i][k], got[i][k], want[i][k])
			}
		}
	}
}

func TestFusedSliceMatchesChainRandom(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 50
	}
	for seed := 1; seed <= seeds; seed++ {
		r := sim.NewRand(uint64(seed))
		scheds := [2][]action{randomSchedule(r, 40), randomSchedule(r, 40)}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { checkSame(t, scheds) })
	}
}

// soloQuanta returns the start and duration of each of the first n full
// quanta of a slice that starts at time 0 from warmth 0.6 with its sibling
// idle.
func soloQuanta(n int) (starts, durs []sim.Time) {
	_, c := newCPU(1)
	w, at := 0.6, sim.Time(0)
	for k := 0; k < n; k++ {
		q := c.planQuantum(w, userQuantum, 1)
		starts, durs = append(starts, at), append(durs, q.dur)
		at += q.dur
		w = q.warmth
	}
	return starts, durs
}

func TestFusedSliceMatchesChainCases(t *testing.T) {
	const q = userQuantum
	us := sim.Microsecond
	starts, durs := soloQuanta(5)
	for _, tc := range []struct {
		name   string
		scheds [2][]action
	}{
		// Thread 1 starts kernel work in the same event as thread 0's
		// UserExec, after it: the first quantum keeps the idle-sibling
		// factor, the rest run shared.
		{"sibling change at the slice's start", [2][]action{
			{{kind: 0, instr: 5 * q}},
			{{kind: 1, dur: 20 * us}},
		}},
		// The same with the sibling going first: every quantum is shared.
		{"sibling change just before the slice", [2][]action{
			{{kind: 2, dur: 0}, {kind: 0, instr: 5 * q}},
			{{kind: 1, dur: 20 * us}},
		}},
		// Thread 1's kernel work starts and ends inside one quantum of
		// thread 0's slice: only the next quantum's sample could see it,
		// and by then the sibling is idle again.
		{"busy/idle flip within one quantum", [2][]action{
			{{kind: 0, instr: 5 * q}},
			{{kind: 2, dur: starts[2] + durs[2]/4}, {kind: 1, dur: durs[2] / 2}},
		}},
		// The sibling's change lands exactly on a quantum boundary, in an
		// event posted after that boundary was known: the chain's quantum
		// event fires first and keeps the old factor.
		{"sibling change at a quantum boundary, posted after it was known", [2][]action{
			{{kind: 0, instr: 5 * q}},
			{{kind: 2, dur: starts[1] + durs[1]/2}, {kind: 2, dur: starts[2] - starts[1] - durs[1]/2},
				{kind: 1, dur: 20 * us}},
		}},
		// A sibling that flips on and off across many quanta.
		{"sibling flips every few quanta", [2][]action{
			{{kind: 0, instr: 24 * q}},
			{{kind: 1, dur: 7 * us, gap: 9 * us}, {kind: 1, dur: 3 * us, gap: 2 * us},
				{kind: 0, instr: q / 2, gap: 15 * us}, {kind: 1, dur: 30 * us}},
		}},
		{"0-instruction UserExec", [2][]action{
			{{kind: 0, instr: 0}, {kind: 0, instr: 0, gap: us}, {kind: 0, instr: 1}},
			{{kind: 0, instr: 3 * q}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkSame(t, tc.scheds) })
	}
}

func TestTieAtQuantumBoundaryKeepsOldFactor(t *testing.T) {
	// The one schedule where the fused slice and the chain part: the
	// sibling's change fires at the exact picosecond a later quantum
	// starts, from an event posted before that quantum's predecessor
	// began. The chain posted its quantum event after that event and so
	// sampled the new state; the fused slice applies the tie rule, and
	// the quantum keeps the old factor.
	starts, durs := soloQuanta(3)
	m := newMachine(false)
	a, b := m.c.threads[0], m.c.threads[1]
	var end sim.Time
	m.c.UserExec(a, 3*userQuantum, func() { end = m.eng.Now() })
	m.c.Stall(b, starts[2], func() { m.c.KernelExec(b, 20*sim.Microsecond, func() {}) })
	m.eng.Run()
	if want := starts[2] + durs[2]; end != want {
		t.Fatalf("slice ended at %v, want %v: the last quantum took the new factor", end, want)
	}
}

func TestZeroInstructionUserExecTakesOneCycle(t *testing.T) {
	eng, c := newCPU(1)
	th := c.Thread(0)
	var end sim.Time = -1
	c.UserExec(th, 0, func() { end = eng.Now() })
	eng.Run()
	if end != sim.CyclePS || th.UserTime != sim.CyclePS || th.UserInstr != 0 {
		t.Fatalf("0-instruction UserExec ended at %v, UserTime %v, UserInstr %d; want one cycle",
			end, th.UserTime, th.UserInstr)
	}
}

func TestChangeInLastQuantumPostsNoEvent(t *testing.T) {
	// Thread 0 runs three quanta from warmth 0.6 with its sibling idle;
	// thread 1 starts kernel work halfway through the last one.
	starts, durs := soloQuanta(3)
	start, last := starts[2], durs[2]
	mid := start + last/2
	scheds := [2][]action{
		{{kind: 0, instr: 3 * userQuantum}},
		{{kind: 2, dur: mid}, {kind: 1, dur: 20 * sim.Microsecond}},
	}
	checkSame(t, scheds)

	// That quantum keeps its factor, so the end event stays the one
	// UserExec posted: it still fires before an event posted for the same
	// instant after UserExec, which a re-posted end event would not.
	m := newMachine(false)
	a, b := m.c.threads[0], m.c.threads[1]
	var end sim.Time
	m.c.UserExec(a, 3*userQuantum, func() { end = m.eng.Now() })
	endAt := a.slice.endAt
	m.eng.AtArgPooled(endAt, func(any) {
		if a.State() != Idle {
			t.Error("the end event was re-posted: it fired after a later-posted event at its instant")
		}
	}, nil)
	m.eng.Post(mid, func() { m.c.KernelExec(b, 20*sim.Microsecond, func() {}) })
	m.eng.Run()
	if end != endAt || endAt != start+last {
		t.Fatalf("slice ended at %v, posted end %v, last quantum ends %v", end, endAt, start+last)
	}
}

func TestRunUntilMidSliceReadsChainCounters(t *testing.T) {
	// A reader stops the engine inside a 5-quantum slice, at an event of
	// its own, and reads the counters through CPU.Thread: it sees exactly
	// the quanta that have started, as the chain charged them.
	stop := 3*userQuantum*sim.Time(float64(sim.Second)/DefaultParams().ClockHz/1.6) + 123
	var got [2]Counters
	var warm [2]float64
	for k, chain := range []bool{true, false} {
		m := newMachine(chain)
		m.x.UserExec(m.c.threads[0], 5*userQuantum, func() {})
		m.eng.Post(stop, func() {})
		m.eng.RunUntil(stop)
		got[k], warm[k] = m.read(0)
	}
	if got[0] != got[1] || warm[0] != warm[1] {
		t.Fatalf("mid-slice read:\n  fused %+v warmth %v\n  chain %+v warmth %v", got[1], warm[1], got[0], warm[0])
	}
	if got[1].UserInstr == 0 || got[1].UserInstr >= 5*userQuantum || got[1].UserInstr%userQuantum != 0 {
		t.Fatalf("stop at %v is not mid-slice: %d instructions charged", stop, got[1].UserInstr)
	}
}

// BenchmarkUserExec times one UserExec from the call to its completion:
// one quantum (an FIO op's 8,000 instructions) and five (a YCSB op's
// 40,000), with the SMT sibling idle, and five with the sibling running
// back-to-back one-quantum slices, as an FIO co-runner does.
func BenchmarkUserExec(b *testing.B) {
	for _, bc := range []struct {
		name  string
		instr uint64
		busy  bool
	}{
		{"1quantum/idle-sibling", 8000, false},
		{"5quanta/idle-sibling", 40000, false},
		{"5quanta/busy-sibling", 40000, true},
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
				c.UserExec(th, bc.instr, fin)
				for !done {
					eng.Step()
				}
			}
		})
	}
}
