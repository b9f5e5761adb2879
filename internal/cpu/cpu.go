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
	core  *Core
	state ThreadState

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

func (t *HWThread) sibling() *HWThread {
	if t.core.Threads[0] == t {
		return t.core.Threads[1]
	}
	return t.core.Threads[0]
}

// State returns the thread's current state.
func (t *HWThread) State() ThreadState { return t.state }

// Warmth returns the current microarchitectural warmth in [0,1].
func (t *HWThread) Warmth() float64 { return t.warmth }

// CPU is the full processor.
type CPU struct {
	eng     *sim.Engine
	params  Params
	cores   []*Core
	threads []*HWThread
	expApx  func(float64) float64

	// contFn is the pre-bound continuation callback and contPool its
	// carrier free list: every userChunk/KernelExec/Stall completion is
	// scheduled through the engine's pooled argument path instead of a
	// fresh closure (these fire once per execution phase — the hot path).
	contFn   func(any)
	contPool []*cpuCont
}

// cpuCont carries a deferred execution continuation: either user-chunk
// progress (remaining/chunk set) or a plain end-of-phase idle transition.
type cpuCont struct {
	t         *HWThread
	remaining uint64
	chunk     uint64
	done      func()
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
			t := &HWThread{ID: i*2 + j, cpu: c, core: core, warmth: 0.5}
			core.Threads[j] = t
			c.threads = append(c.threads, t)
		}
		c.cores = append(c.cores, core)
	}
	return c
}

// Params returns the model constants.
func (c *CPU) Params() Params { return c.params }

// Cores returns the physical cores.
func (c *CPU) Cores() []*Core { return c.cores }

// Threads returns all hardware threads, [core0.t0, core0.t1, core1.t0, ...].
func (c *CPU) Threads() []*HWThread { return c.threads }

// Thread returns hardware thread i.
func (c *CPU) Thread(i int) *HWThread {
	if i < 0 || i >= len(c.threads) {
		panic(fmt.Sprintf("cpu: no hardware thread %d", i))
	}
	return c.threads[i]
}

func expNeg(x float64) float64 { return math.Exp(-x) }

// userIPCAt returns the effective user IPC for warmth w, ignoring SMT.
func (c *CPU) userIPCAt(w float64) float64 {
	p := c.params
	return p.BaseIPC * (p.IPCFloor + (1-p.IPCFloor)*w)
}

// smtFactor returns the thread's relative issue rate given its sibling's
// current state.
func (c *CPU) smtFactor(t *HWThread) float64 {
	sib := t.sibling().state
	if sib == RunningUser || sib == RunningKernel {
		return c.params.SMTShare
	}
	return 1.0
}

// userQuantum is the chunk size (in instructions) at which warmth and SMT
// sharing are resampled during user execution, bounding the sampling error
// when a sibling starts or stops mid-slice.
const userQuantum = 8192

// UserExec runs instr user instructions on t, then calls done. Execution is
// chunked into quanta; each quantum's speed reflects the thread's warmth
// (pollution) and whether the SMT sibling is issuing. Miss-event counters
// accrue per the warmth-dependent rates.
func (c *CPU) UserExec(t *HWThread, instr uint64, done func()) {
	if t.state != Idle {
		panic(fmt.Sprintf("cpu: UserExec on thread %d in state %v", t.ID, t.state))
	}
	t.state = RunningUser
	c.userChunk(t, instr, done)
}

func (c *CPU) userChunk(t *HWThread, remaining uint64, done func()) {
	p := c.params
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
	t.warmth = 1 - (1-w)*expNeg(float64(chunk)/p.RecoverInstr)
	cc := c.getCont()
	cc.t, cc.remaining, cc.chunk, cc.done = t, remaining, chunk, done
	c.eng.PostArg(dur, c.contFn, cc)
}

// getCont takes a pooled continuation carrier.
//
//hwdp:pool acquire cont
func (c *CPU) getCont() *cpuCont {
	if n := len(c.contPool); n > 0 {
		cc := c.contPool[n-1]
		c.contPool[n-1] = nil
		c.contPool = c.contPool[:n-1]
		return cc
	}
	return &cpuCont{}
}

// putCont clears a continuation carrier and returns it to the pool.
//
//hwdp:pool release cont
func (c *CPU) putCont(cc *cpuCont) {
	*cc = cpuCont{}
	c.contPool = append(c.contPool, cc)
}

// runCont unpacks a pooled continuation: chain the next user chunk, or
// idle the thread and fire the caller's completion.
func (c *CPU) runCont(a any) {
	cc := a.(*cpuCont)
	t, remaining, chunk, done := cc.t, cc.remaining, cc.chunk, cc.done
	c.putCont(cc)
	if remaining > chunk {
		c.userChunk(t, remaining-chunk, done)
		return
	}
	t.state = Idle
	done()
}

// KernelExec runs kernel work of a known duration on t (the latency model
// fixes the time; instructions are derived via KernelIPC), polluting the
// thread's microarchitectural state, then calls done.
func (c *CPU) KernelExec(t *HWThread, dur sim.Time, done func()) {
	if t.state != Idle {
		panic(fmt.Sprintf("cpu: KernelExec on thread %d in state %v", t.ID, t.state))
	}
	p := c.params
	if dur < 0 {
		dur = 0
	}
	instr := uint64(float64(dur.ToCycles()) * p.KernelIPC)
	t.KernelInstr += instr
	t.KernelTime += dur
	t.warmth *= expNeg(float64(instr) / p.PolluteInstr)
	t.state = RunningKernel
	cc := c.getCont()
	cc.t, cc.done = t, done
	c.eng.PostArg(dur, c.contFn, cc)
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
	cc := c.getCont()
	cc.t, cc.done = t, done
	c.eng.PostArg(dur, c.contFn, cc)
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
