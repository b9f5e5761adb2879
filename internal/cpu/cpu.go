// Package cpu models the processor: physical cores with 2-way SMT, user
// and kernel instruction execution, pipeline stalls, and the
// microarchitectural resource-pollution effect that the paper measures
// (Figures 4 and 14): frequent OS intervention evicts cache and
// branch-predictor state, lowering user-level IPC; hardware-handled misses
// leave that state warm.
//
// The model tracks a per-hardware-thread "warmth" w in [0,1]. Kernel
// instructions decay it exponentially; user instructions restore it. User
// IPC scales between IPCFloor·BaseIPC (cold) and BaseIPC (warm), and
// user-level miss-event rates scale inversely with warmth. When both SMT
// siblings issue concurrently each runs at SMTShare of its solo speed
// (aggregate throughput SMTShare×2 ≈ 1.3×); a sibling whose pipeline is
// stalled on an HWDP miss leaves its issue slots to the co-runner, the
// effect behind Figure 16.
//
// A UserExec slice runs in quanta of userQuantum instructions, each at the
// warmth and SMT factor in force when it starts, but the slice is one
// engine event: UserExec charges the first quantum, plans the rest and
// posts the end once. The SMT factor moves only when the sibling starts or
// stops issuing, and then the slice is re-split: quanta that start at or
// before now keep their factor, the rest are planned again at the new one,
// and the end event is re-posted only if the end moves.
//
// Tie rule: a sibling change at the exact picosecond a quantum starts does
// not reach that quantum. The per-quantum event chain this replaces agreed
// except when the change came from an event posted before the previous
// quantum began, which then fired first; no run in the repository has
// such a tie (the golden pins and every hwdpbench output are unchanged).
//
// A quantum's counters and warmth are charged lazily, once the clock has
// reached its start: at the next state change on the core, at the slice
// end, or on a read through CPU.Thread, CPU.Threads or HWThread.Warmth,
// which charge up to Now. Reading an HWThread's Counters field directly
// mid-slice shows only the quanta charged so far, and after
// sim.Engine.RunUntil Now is the last fired event, not the deadline.
package cpu

import (
	"fmt"
	"math"

	"hwdp/internal/sim"
)

// Params are the microarchitectural model constants.
type Params struct {
	ClockHz   float64 // core frequency
	BaseIPC   float64 // user IPC, warm, solo
	KernelIPC float64 // kernel-context IPC (used to convert time->instructions)
	SMTShare  float64 // per-thread relative speed when both siblings issue
	IPCFloor  float64 // fraction of BaseIPC at zero warmth

	PolluteInstr float64 // kernel instructions for one e-folding of warmth decay
	RecoverInstr float64 // user instructions for one e-folding of warmth recovery

	// Per-user-instruction miss rates: base (warm) and the additional rate
	// at zero warmth.
	L1MissBase, L1MissCold         float64
	L2MissBase, L2MissCold         float64
	LLCMissBase, LLCMissCold       float64
	BranchMissBase, BranchMissCold float64
}

// DefaultParams models the evaluation machine (Xeon E5-2640 v3, 2.8 GHz).
// Warmth constants are calibrated so the YCSB-C experiment reproduces the
// paper's +7.0% user-level IPC for HWDP over OSDP (Fig. 14).
func DefaultParams() Params {
	return Params{
		ClockHz:   float64(sim.DefaultClockHz),
		BaseIPC:   1.6,
		KernelIPC: 1.0,
		SMTShare:  0.65,
		IPCFloor:  0.55,

		PolluteInstr: 9000,
		RecoverInstr: 45000,

		L1MissBase: 0.020, L1MissCold: 0.028,
		L2MissBase: 0.0060, L2MissCold: 0.011,
		LLCMissBase: 0.0015, LLCMissCold: 0.0045,
		BranchMissBase: 0.0040, BranchMissCold: 0.0085,
	}
}

// ThreadState is what a hardware thread is doing right now.
type ThreadState int

// States. Stalled means the pipeline is blocked on an HWDP page miss: the
// context occupies the hardware thread but issues nothing, freeing shared
// resources for the sibling. Idle means nothing is scheduled.
const (
	Idle ThreadState = iota
	RunningUser
	RunningKernel
	Stalled
)

// String returns the thread state's display name.
func (s ThreadState) String() string {
	switch s {
	case Idle:
		return "idle"
	case RunningUser:
		return "user"
	case RunningKernel:
		return "kernel"
	case Stalled:
		return "stalled"
	}
	return "?"
}

// Counters are the per-hardware-thread performance monitoring counters the
// figures report.
type Counters struct {
	UserInstr    uint64
	KernelInstr  uint64
	UserTime     sim.Time
	KernelTime   sim.Time
	StallTime    sim.Time
	L1Miss       uint64
	L2Miss       uint64
	LLCMiss      uint64
	BranchMiss   uint64
	ContextSwaps uint64
}

// UserIPC returns the user-level instructions per cycle.
func (c Counters) UserIPC() float64 {
	cy := c.UserTime.ToCycles()
	if cy == 0 {
		return 0
	}
	return float64(c.UserInstr) / float64(cy)
}

// Add accumulates other into c.
func (c *Counters) Add(o Counters) {
	c.UserInstr += o.UserInstr
	c.KernelInstr += o.KernelInstr
	c.UserTime += o.UserTime
	c.KernelTime += o.KernelTime
	c.StallTime += o.StallTime
	c.L1Miss += o.L1Miss
	c.L2Miss += o.L2Miss
	c.LLCMiss += o.LLCMiss
	c.BranchMiss += o.BranchMiss
	c.ContextSwaps += o.ContextSwaps
}

// HWThread is one logical core (hardware thread).
type HWThread struct {
	ID    int
	cpu   *CPU
	sib   *HWThread
	state ThreadState

	// slice is the running UserExec's uncharged quanta (next to state:
	// a state change reads the sibling's), and done the caller's
	// completion of the running UserExec, KernelExec or Stall.
	slice userSlice
	done  func()

	warmth float64
	Counters

	// The open-ended stall StartStall opened, if any.
	stallOpen  bool
	stallStart sim.Time
}

// Core is one physical core with two hardware threads.
type Core struct {
	ID      int
	Threads [2]*HWThread
}

// State returns the thread's current state.
func (t *HWThread) State() ThreadState { return t.state }

// Warmth returns the current microarchitectural warmth in [0,1].
func (t *HWThread) Warmth() float64 {
	t.cpu.settle(t)
	return t.warmth
}

// userSlice is a running UserExec past its charged quanta: the
// instructions left to charge, the start of the first uncharged quantum,
// the SMT factor the uncharged quanta run at, and the end event. A
// one-quantum slice is charged at UserExec and never uses it.
type userSlice struct {
	left   uint64
	next   sim.Time
	factor float64
	endAt  sim.Time
	end    *sim.Event
}

// quantumPlan is one quantum's duration and the warmth after it.
type quantumPlan struct {
	dur    sim.Time
	warmth float64
}

// CPU is the full processor.
type CPU struct {
	eng     *sim.Engine
	params  Params
	cores   []*Core
	threads []*HWThread

	// pollute memoizes KernelExec's warmth factor expNeg(instr /
	// PolluteInstr), direct-mapped on the integer instruction count. Most
	// kernel charges are fixed per-event costs, so few distinct counts
	// recur; a count-scaled charge that collides just recomputes. math.Exp
	// is deterministic, so a hit returns the bits a recomputation would.
	// recovery does the same for a quantum's expNeg(chunk / RecoverInstr):
	// a chunk is almost always userQuantum or an op's fixed remainder.
	pollute  [memoSlots]expMemo
	recovery [memoSlots]expMemo

	// contFn is runCont bound once: every UserExec, KernelExec and Stall
	// end is posted with the thread as the argument, so no phase builds a
	// closure or a carrier.
	contFn func(any)
}

// New builds a CPU with the given number of physical cores (2 hardware
// threads each).
func New(eng *sim.Engine, cores int, p Params) *CPU {
	if cores <= 0 {
		panic("cpu: need at least one core")
	}
	c := &CPU{eng: eng, params: p}
	c.contFn = c.runCont
	for i := 0; i < cores; i++ {
		core := &Core{ID: i}
		for j := 0; j < 2; j++ {
			t := &HWThread{ID: i*2 + j, cpu: c, warmth: 0.5}
			core.Threads[j] = t
			c.threads = append(c.threads, t)
		}
		core.Threads[0].sib, core.Threads[1].sib = core.Threads[1], core.Threads[0]
		c.cores = append(c.cores, core)
	}
	return c
}

// Params returns the model constants.
func (c *CPU) Params() Params { return c.params }

// Cores returns the physical cores.
func (c *CPU) Cores() []*Core { return c.cores }

// Threads returns all hardware threads, [core0.t0, core0.t1, core1.t0, ...],
// with their counters charged up to Now.
func (c *CPU) Threads() []*HWThread {
	for _, t := range c.threads {
		c.settle(t)
	}
	return c.threads
}

// Thread returns hardware thread i, with its counters charged up to Now.
func (c *CPU) Thread(i int) *HWThread {
	if i < 0 || i >= len(c.threads) {
		panic(fmt.Sprintf("cpu: no hardware thread %d", i))
	}
	c.settle(c.threads[i])
	return c.threads[i]
}

func expNeg(x float64) float64 { return math.Exp(-x) }

// memoSlots sizes the warmth-factor memos (a power of two).
const memoSlots = 256

// expMemo is one warmth-memo slot: n+1 (0 = empty) and its factor.
type expMemo struct {
	key    uint64
	factor float64
}

// memoSlot picks n's memo slot: the low byte folded with the next one.
// The low byte alone put FIO's 8,000-instruction op and 7,232, the last
// quantum of a 40,000-instruction YCSB op, on one slot, so a machine
// running both recomputed math.Exp on each alternation. Folded, userQuantum
// and the last quantum of every op size the evaluation runs take slots of
// their own.
func memoSlot(n uint64) uint64 { return (n ^ n>>8) & (memoSlots - 1) }

// memoExpNeg returns expNeg(n / scale) through the direct-mapped memo tab.
func memoExpNeg(tab *[memoSlots]expMemo, n uint64, scale float64) float64 {
	m := &tab[memoSlot(n)]
	if m.key != n+1 {
		m.key, m.factor = n+1, expNeg(float64(n)/scale)
	}
	return m.factor
}

// pollution returns expNeg(instr / PolluteInstr) through the memo.
func (c *CPU) pollution(instr uint64) float64 {
	return memoExpNeg(&c.pollute, instr, c.params.PolluteInstr)
}

// recoveryFactor returns expNeg(chunk / RecoverInstr) through the memo.
func (c *CPU) recoveryFactor(chunk uint64) float64 {
	return memoExpNeg(&c.recovery, chunk, c.params.RecoverInstr)
}

// userIPCAt returns the effective user IPC for warmth w, ignoring SMT.
func (c *CPU) userIPCAt(w float64) float64 {
	p := &c.params
	return p.BaseIPC * (p.IPCFloor + (1-p.IPCFloor)*w)
}

// smtFactor returns the thread's relative issue rate given its sibling's
// current state.
func (c *CPU) smtFactor(t *HWThread) float64 {
	sib := t.sib.state
	if sib == RunningUser || sib == RunningKernel {
		return c.params.SMTShare
	}
	return 1.0
}

// userQuantum is the chunk size (in instructions) at which warmth and SMT
// sharing are resampled during user execution, bounding the sampling error
// when a sibling starts or stops mid-slice. A quantum is not an event: a
// slice posts one end event, and a sibling's state change re-splits it at
// the first quantum that starts after now (the tie rule is in the package
// comment).
const userQuantum = 8192

// UserExec runs instr user instructions on t, then calls done. Execution is
// split into quanta; each quantum's speed reflects the thread's warmth
// (pollution) and whether the SMT sibling is issuing. Miss-event counters
// accrue per the warmth-dependent rates.
func (c *CPU) UserExec(t *HWThread, instr uint64, done func()) {
	if t.state != Idle {
		panic(fmt.Sprintf("cpu: UserExec on thread %d in state %v", t.ID, t.state))
	}
	t.state = RunningUser
	c.siblingMoved(t)
	// The first quantum starts now, even an empty one.
	f := c.smtFactor(t)
	chunk := min(instr, userQuantum)
	q := c.planQuantum(t.warmth, chunk, f)
	c.charge(t, chunk, q)
	t.done = done
	next := c.eng.Now() + q.dur
	if instr == chunk {
		// One quantum, already started: nothing can move its end.
		c.eng.AtArgPooled(next, c.contFn, t)
		return
	}
	s := &t.slice
	s.left, s.next, s.factor = instr-chunk, next, f
	s.endAt = c.sliceEnd(t)
	s.end = c.eng.AtArgPooled(s.endAt, c.contFn, t)
}

// planQuantum returns the duration of chunk user instructions at warmth w
// and SMT factor f, at least one cycle, and the warmth after them.
func (c *CPU) planQuantum(w float64, chunk uint64, f float64) quantumPlan {
	ipc := c.userIPCAt(w) * f
	dur := sim.Time(float64(chunk) / ipc / c.params.ClockHz * 1e12)
	if dur < sim.CyclePS {
		dur = sim.CyclePS
	}
	return quantumPlan{dur, 1 - (1-w)*c.recoveryFactor(chunk)}
}

// charge charges a quantum of chunk instructions planned as q: its
// instructions, time and miss events, and the warmth it restores.
func (c *CPU) charge(t *HWThread, chunk uint64, q quantumPlan) {
	p := &c.params
	cold := 1 - t.warmth
	t.L1Miss += uint64(float64(chunk) * (p.L1MissBase + p.L1MissCold*cold))
	t.L2Miss += uint64(float64(chunk) * (p.L2MissBase + p.L2MissCold*cold))
	t.LLCMiss += uint64(float64(chunk) * (p.LLCMissBase + p.LLCMissCold*cold))
	t.BranchMiss += uint64(float64(chunk) * (p.BranchMissBase + p.BranchMissCold*cold))
	t.UserInstr += chunk
	t.UserTime += q.dur
	t.warmth = q.warmth
}

// sliceEnd returns when t's slice ends if its uncharged quanta run at the
// slice's factor. settle repeats the same arithmetic when it charges them.
func (c *CPU) sliceEnd(t *HWThread) sim.Time {
	s := &t.slice
	end, w := s.next, t.warmth
	for left := s.left; left > 0; {
		chunk := min(left, userQuantum)
		q := c.planQuantum(w, chunk, s.factor)
		end += q.dur
		w = q.warmth
		left -= chunk
	}
	return end
}

// settle charges the quanta of t's slice that start at or before now.
func (c *CPU) settle(t *HWThread) {
	s := &t.slice
	for s.left > 0 && s.next <= c.eng.Now() {
		chunk := min(s.left, userQuantum)
		q := c.planQuantum(t.warmth, chunk, s.factor)
		c.charge(t, chunk, q)
		s.left -= chunk
		s.next += q.dur
	}
}

// siblingMoved re-splits the sibling's slice, if it has uncharged quanta,
// after t starts or stops issuing. Stalled and idle threads both leave the
// issue slots to the sibling, so a change between them needs no call.
func (c *CPU) siblingMoved(t *HWThread) {
	if t.sib.slice.left > 0 {
		c.resplit(t.sib)
	}
}

// resplit brings t's running slice to t's current SMT factor: quanta that
// start at or before now are charged at the old factor, the rest take the
// new one, and the end event moves if the end does. Once the slice's last
// quantum has started nothing moves.
func (c *CPU) resplit(t *HWThread) {
	s := &t.slice
	if s.factor == c.smtFactor(t) {
		return
	}
	c.settle(t)
	if s.left == 0 {
		return
	}
	s.factor = c.smtFactor(t)
	if end := c.sliceEnd(t); end != s.endAt {
		s.end.Cancel()
		s.endAt = end
		s.end = c.eng.AtArgPooled(end, c.contFn, t)
	}
}

// runCont ends t's UserExec, KernelExec or Stall: it charges a slice's
// remaining quanta, idles the thread and fires the caller's completion.
// The sibling is re-split after done returns, so a completion that starts
// t issuing again at once leaves the sibling's slice as it was.
func (c *CPU) runCont(a any) {
	t := a.(*HWThread)
	if t.slice.end != nil {
		c.settle(t)
		t.slice.end = nil
	}
	issued := t.state != Stalled
	done := t.done
	t.done = nil
	t.state = Idle
	done()
	if issued {
		c.siblingMoved(t)
	}
}

// KernelExec runs kernel work of a known duration on t (the latency model
// fixes the time; instructions are derived via KernelIPC), polluting the
// thread's microarchitectural state, then calls done.
func (c *CPU) KernelExec(t *HWThread, dur sim.Time, done func()) {
	if t.state != Idle {
		panic(fmt.Sprintf("cpu: KernelExec on thread %d in state %v", t.ID, t.state))
	}
	if dur < 0 {
		dur = 0
	}
	instr := uint64(float64(dur.ToCycles()) * c.params.KernelIPC)
	t.KernelInstr += instr
	t.KernelTime += dur
	t.warmth *= c.pollution(instr)
	t.state = RunningKernel
	c.siblingMoved(t)
	t.done = done
	c.eng.PostArg(dur, c.contFn, t)
}

// Stall blocks the pipeline for dur — the HWDP page-miss behavior: the
// thread holds its context, issues nothing, pollutes nothing, and frees
// shared core resources to the sibling. done runs when the stall ends.
func (c *CPU) Stall(t *HWThread, dur sim.Time, done func()) {
	if t.state != Idle {
		panic(fmt.Sprintf("cpu: Stall on thread %d in state %v", t.ID, t.state))
	}
	t.StallTime += dur
	t.state = Stalled
	t.done = done
	c.eng.PostArg(dur, c.contFn, t)
}

// AccountContextSwitch records a context switch on t (time is charged via
// KernelExec by the scheduler model).
func (t *HWThread) AccountContextSwitch() { t.ContextSwaps++ }

// StartStall puts t's pipeline into the stalled state for an open-ended
// duration (an HWDP page miss whose length is decided by the SMU/device).
// Each StartStall must be matched by exactly one EndStall.
func (c *CPU) StartStall(t *HWThread) {
	if t.state != Idle {
		panic(fmt.Sprintf("cpu: StartStall on thread %d in state %v", t.ID, t.state))
	}
	t.state = Stalled
	t.stallOpen = true
	t.stallStart = c.eng.Now()
}

// EndStall ends the stall StartStall opened on t, charging its length to
// StallTime and idling the thread.
func (c *CPU) EndStall(t *HWThread) {
	if !t.stallOpen {
		panic(fmt.Sprintf("cpu: EndStall on thread %d with no open stall", t.ID))
	}
	t.stallOpen = false
	t.StallTime += c.eng.Now() - t.stallStart
	t.state = Idle
}
