package kernel

// Chaos tests: deterministic fault storms injected at the device, with
// recovery exercised at every layer above it — SMU retry/backoff/timeout,
// MMU bounce to the OS path, block-layer retry and timeout, SIGBUS
// delivery — while the machine-wide structural invariants keep holding and
// no walk ever hangs.

import (
	"testing"

	"hwdp/internal/fault"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/smu"
)

func withBlockTimeout(d sim.Time) rigOpt { return func(c *Config) { c.BlockTimeout = d } }

// stormRules is the mixed fault load used by the storm tests: frequent
// retryable blips, occasional lost commands and latency spikes, and a rare
// unrecoverable media error.
func stormRules() []fault.Rule {
	return []fault.Rule{
		{Kind: fault.UECC, Prob: 0.002},
		{Kind: fault.Drop, Prob: 0.004},
		{Kind: fault.Spike, Prob: 0.01, SpikeFactor: 5},
		{Kind: fault.Transient, Prob: 0.05},
	}
}

// checkFrameConservation asserts the SMU never leaked a free page: every
// frame the OS handed it was installed or is still held.
func checkFrameConservation(t *testing.T, r *rig) {
	t.Helper()
	st := r.smu.Stats()
	held := uint64(r.smu.FramesHeld())
	if st.FramesAccepted != st.FramesInstalled+held {
		t.Fatalf("SMU frame leak: accepted %d != installed %d + held %d (recycled %d)",
			st.FramesAccepted, st.FramesInstalled, held, st.FramesRecycled)
	}
}

// stormRun drives a random access mix against a faulty device and returns
// the rig for inspection. Threads killed by SIGBUS are replaced so the
// load keeps running, mirroring a multi-process workload where the kernel
// outlives any one victim.
func stormRun(t *testing.T, scheme Scheme, seed uint64, totalOps int) (*rig, int) {
	t.Helper()
	r := newRig(t, 4<<20, 128, withScheme(scheme),
		kptedEvery(2*sim.Millisecond), withBlockTimeout(2*sim.Millisecond))
	r.dev.SetInjector(fault.NewInjector(sim.NewRand(seed), stormRules()...))
	if scheme == HWDP {
		p := smu.DefaultRetryPolicy()
		p.CmdTimeout = sim.Micro(500)
		r.smu.SetRetryPolicy(p)
	}

	const filePages = 8192 // 32 MiB file on a 4 MiB machine
	fileVA, _ := r.mmapFile(t, "storm", filePages, MmapFlags{Fast: true})
	anonVA := r.mmapAnon(t, 512, true)

	rng := sim.NewRand(seed + 1)
	hwIDs := []int{0, 2}
	threads := []*Thread{r.th, r.k.NewThread(r.p, hwIDs[1])}
	kills := 0
	pending := len(threads)
	ops := 0

	var step func(i int)
	step = func(i int) {
		if threads[i].Killed {
			// SIGBUS took this thread down; a successor reuses its
			// hardware context.
			kills++
			threads[i] = r.k.NewThread(r.p, hwIDs[i])
		}
		if ops >= totalOps {
			pending--
			return
		}
		ops++
		write := rng.Intn(4) == 0
		var va pagetable.VAddr
		switch rng.Intn(8) {
		case 0:
			va = anonVA + pagetable.VAddr(rng.Intn(512))*4096
		case 1:
			if rng.Intn(4) == 0 {
				r.k.Msync(threads[i], fileVA, func() { step(i) })
				return
			}
			fallthrough
		default:
			va = fileVA + pagetable.VAddr(rng.Intn(filePages))*4096
		}
		r.k.Access(threads[i], va, write, func(mmu.Result) { step(i) })
	}
	for i := range threads {
		step(i)
	}
	checked := 0
	// The background daemons rearm forever, so the engine never runs dry;
	// bound the storm by virtual time instead.
	deadline := r.eng.Now() + 30*sim.Second
	for pending > 0 && r.eng.Now() < deadline && r.eng.Step() {
		if ops%400 == 200 && checked < ops/400 {
			checked = ops / 400
			checkInvariants(t, r)
			checkFrameConservation(t, r)
		}
	}
	if pending != 0 {
		t.Fatalf("storm hung with %d drivers outstanding (ops %d/%d)", pending, ops, totalOps)
	}
	return r, kills
}

func TestFaultStormInvariants(t *testing.T) {
	for _, scheme := range []Scheme{OSDP, SWDP, HWDP} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			r, kills := stormRun(t, scheme, 42, 2500)
			checkInvariants(t, r)
			checkFrameConservation(t, r)
			if n := r.smu.Outstanding(); n != 0 {
				t.Fatalf("%d PMSHR slots leaked", n)
			}
			if n := r.dev.Inflight(); n != 0 {
				t.Fatalf("%d device commands still in flight", n)
			}
			st := r.k.Stats()
			ds := r.dev.Stats()
			if ds.InjTransient == 0 || ds.InjDropped == 0 {
				t.Fatalf("storm injected nothing: %+v", ds)
			}
			if st.BlockRetries == 0 {
				t.Fatalf("no block-layer retry ever ran: %+v", st)
			}
			if uint64(kills) != st.SIGBUSKills {
				t.Fatalf("replaced %d threads, kernel killed %d", kills, st.SIGBUSKills)
			}
			if scheme == HWDP {
				ss := r.smu.Stats()
				if ss.Retries == 0 {
					t.Fatalf("SMU never retried under storm: %+v", ss)
				}
			}
		})
	}
}

// TestSMUPathDegradation: a device whose SMU queue fails every command
// must degrade — every walk still completes through the OS fallback path,
// and nothing hangs or leaks. This is the paper's graceful-degradation
// requirement taken to its limit.
func TestSMUPathDegradation(t *testing.T) {
	r := newRig(t, 16<<20, 64, withScheme(HWDP))
	// Queue 1 is the SMU's queue in this rig; OS block queues have
	// IDs >= 1000 and stay healthy.
	r.dev.SetInjector(fault.NewInjector(sim.NewRand(7),
		fault.Rule{Kind: fault.Transient, Prob: 1, Queue: 1}))
	va, _ := r.mmapFile(t, "deg", 256, MmapFlags{Fast: true})

	for i := 0; i < 32; i++ {
		out, _ := r.access(t, r.th, va+pagetable.VAddr(i)*4096, false)
		if out != mmu.OutcomeOSFault {
			t.Fatalf("access %d: outcome %v, want degraded OS fault", i, out)
		}
	}
	r.eng.RunUntil(r.eng.Now() + 10*sim.Millisecond) // drain prefetch retries
	st := r.k.Stats()
	ss := r.smu.Stats()
	if st.HWBounceFaults == 0 || r.mmu.Stats().HWBounced == 0 {
		t.Fatalf("walks did not degrade via bounce: kernel %+v, mmu %+v", st, r.mmu.Stats())
	}
	if st.SIGBUSKills != 0 || r.th.Killed {
		t.Fatal("transient-only device must never SIGBUS")
	}
	wantAttempts := uint64(1 + r.smu.Policy().MaxRetries)
	if ss.Retries < wantAttempts-1 {
		t.Fatalf("SMU gave up without spending its retry budget: %+v", ss)
	}
	if ss.FramesRecycled == 0 {
		t.Fatalf("failed SMU walks recycled no frames: %+v", ss)
	}
	checkFrameConservation(t, r)
	if n := r.smu.Outstanding(); n != 0 {
		t.Fatalf("%d PMSHR slots leaked", n)
	}
}

// TestUECCKillsFaultingThread: an unrecoverable media error on the only
// copy of a file page must SIGBUS the faulting thread — after the SMU
// fails the walk to the OS and the OS's own read also fails — and the
// access must terminate with a bad-address result, not hang.
func TestUECCKillsFaultingThread(t *testing.T) {
	r := newRig(t, 16<<20, 64, withScheme(HWDP))
	r.dev.SetInjector(fault.NewInjector(sim.NewRand(7),
		fault.Rule{Kind: fault.UECC, Prob: 1, ReadsOnly: true}))
	va, _ := r.mmapFile(t, "uecc", 16, MmapFlags{Fast: true})

	out, _ := r.access(t, r.th, va, false)
	if out != mmu.OutcomeBadAddr {
		t.Fatalf("outcome = %v, want bad-addr after SIGBUS", out)
	}
	if !r.th.Killed {
		t.Fatal("faulting thread not killed")
	}
	st := r.k.Stats()
	if st.SIGBUSKills != 1 {
		t.Fatalf("SIGBUS kills = %d", st.SIGBUSKills)
	}
	if ss := r.smu.Stats(); ss.UECCFailures == 0 {
		t.Fatalf("SMU did not classify the media error: %+v", ss)
	}
	// The poisoned PTE routes later accesses straight to the OS path; a
	// fresh thread faulting the same page is killed the same way.
	th2 := r.k.NewThread(r.p, 2)
	out, _ = r.access(t, th2, va, false)
	if out != mmu.OutcomeBadAddr || !th2.Killed {
		t.Fatalf("second victim: outcome %v killed %v", out, th2.Killed)
	}
	checkFrameConservation(t, r)
	checkInvariants(t, r)
}

// TestWritebackErrorCounted: a UECC on the write path is absorbed — the
// msync completes, the error is counted, nothing hangs.
func TestWritebackErrorCounted(t *testing.T) {
	r := newRig(t, 16<<20, 64, withScheme(HWDP))
	va, _ := r.mmapFile(t, "wb", 16, MmapFlags{Fast: true})
	if out, _ := r.access(t, r.th, va, true); out != mmu.OutcomeHW {
		t.Fatalf("setup write outcome = %v", out)
	}
	r.dev.SetInjector(fault.NewInjector(sim.NewRand(7),
		fault.Rule{Kind: fault.UECC, Prob: 1, WritesOnly: true}))
	done := false
	r.k.Msync(r.th, va, func() { done = true })
	r.eng.RunUntil(r.eng.Now() + 50*sim.Millisecond)
	if !done {
		t.Fatal("msync hung on writeback error")
	}
	if st := r.k.Stats(); st.WritebackErrors == 0 {
		t.Fatalf("writeback error not counted: %+v", st)
	}
}

// TestBlockLayerTimeoutRecoversDrop: the OS read path recovers a command
// the device silently lost, via its completion timeout and a retry.
func TestBlockLayerTimeoutRecoversDrop(t *testing.T) {
	r := newRig(t, 16<<20, 64, withScheme(OSDP), withBlockTimeout(sim.Micro(200)))
	r.dev.SetInjector(fault.NewInjector(sim.NewRand(7),
		fault.Rule{Kind: fault.Drop, Prob: 1, MaxInjections: 1}))
	va, _ := r.mmapFile(t, "drop", 16, MmapFlags{Fast: true})
	out, _ := r.access(t, r.th, va, false)
	if out != mmu.OutcomeOSFault {
		t.Fatalf("outcome = %v", out)
	}
	st := r.k.Stats()
	if st.BlockTimeouts != 1 || st.BlockRetries != 1 {
		t.Fatalf("timeouts %d retries %d, want 1/1", st.BlockTimeouts, st.BlockRetries)
	}
	if st.SIGBUSKills != 0 {
		t.Fatal("recoverable drop must not kill")
	}
}

// TestFaultStormDeterminism: the same seed gives a bit-identical storm —
// virtual end time and every counter at every layer.
func TestFaultStormDeterminism(t *testing.T) {
	type fingerprint struct {
		now   sim.Time
		k     Stats
		s     smu.Stats
		reads uint64
		inj   [3]uint64
	}
	run := func() fingerprint {
		r, _ := stormRun(t, HWDP, 1234, 1500)
		ds := r.dev.Stats()
		return fingerprint{
			now:   r.eng.Now(),
			k:     r.k.Stats(),
			s:     r.smu.Stats(),
			reads: ds.Reads,
			inj:   [3]uint64{ds.InjTransient, ds.InjDropped, ds.InjSpikes},
		}
	}
	f1 := run()
	f2 := run()
	if f1 != f2 {
		t.Fatalf("nondeterministic storm:\n%+v\n%+v", f1, f2)
	}
}
