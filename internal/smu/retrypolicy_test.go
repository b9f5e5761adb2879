package smu

import (
	"testing"

	"hwdp/internal/fault"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/trace"
)

// Edge cases of the retry/backoff schedule. The broad recovery flows
// (retry-to-success, exhaustion, UECC, drop+timeout) live in
// recovery_test.go; these pin the schedule arithmetic itself.

// TestBackoffScheduleExactShifts reads the retry-backoff spans off the miss
// trace and checks the exact Backoff << (attempt-1) progression.
func TestBackoffScheduleExactShifts(t *testing.T) {
	r := newRig(t, 8)
	p := RetryPolicy{MaxRetries: 3, Backoff: sim.Micro(10)}
	r.smu.SetRetryPolicy(p)
	r.dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.Transient, Prob: 1}))
	req := r.request(0x9000, 21)
	req.Trace = &trace.Miss{}
	var res Result = -1
	r.smu.HandleMissArg(req, func(_ any, rr Result, _ pagetable.Entry) { res = rr }, nil)
	r.eng.Run()
	if res != ResultIOError {
		t.Fatalf("res = %v, want io-error after exhaustion", res)
	}
	var backoffs []sim.Time
	for _, sp := range req.Trace.Spans {
		if sp.Name == "retry-backoff" {
			backoffs = append(backoffs, sp.End-sp.Start)
		}
	}
	want := []sim.Time{sim.Micro(10), sim.Micro(20), sim.Micro(40)}
	if len(backoffs) != len(want) {
		t.Fatalf("backoff spans = %v, want %d of them", backoffs, len(want))
	}
	for i := range want {
		if backoffs[i] != want[i] {
			t.Fatalf("backoff[%d] = %v, want %v (schedule = %v)", i, backoffs[i], want[i], backoffs)
		}
	}
	checkConservation(t, r.smu)
}

// TestZeroRetryPolicyFailsImmediately pins MaxRetries = 0: the first
// retryable failure goes straight to the OS exception path — no
// resubmission, no backoff delay.
func TestZeroRetryPolicyFailsImmediately(t *testing.T) {
	r := newRig(t, 8)
	r.smu.SetRetryPolicy(RetryPolicy{MaxRetries: 0, Backoff: sim.Micro(5)})
	r.dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.Transient, Prob: 1, MaxInjections: 1}))
	req := r.request(0xA000, 22)
	var res Result = -1
	r.smu.HandleMissArg(req, func(_ any, rr Result, _ pagetable.Entry) { res = rr }, nil)
	r.eng.Run()
	if res != ResultIOError {
		t.Fatalf("res = %v, want io-error with zero retry budget", res)
	}
	st := r.smu.Stats()
	if st.Retries != 0 {
		t.Fatalf("retries = %d, want 0", st.Retries)
	}
	if r.smu.Outstanding() != 0 {
		t.Fatal("PMSHR not drained")
	}
	checkConservation(t, r.smu)
}

// TestZeroCmdTimeoutNeverFires pins the documented default: CmdTimeout = 0
// disables the completion timeout, so a dropped command leaves the miss
// outstanding forever (the frame stays held, not leaked).
func TestZeroCmdTimeoutNeverFires(t *testing.T) {
	r := newRig(t, 8)
	if r.smu.Policy().CmdTimeout != 0 {
		t.Fatalf("default CmdTimeout = %v, want 0 (disabled)", r.smu.Policy().CmdTimeout)
	}
	r.dev.SetInjector(fault.NewInjector(sim.NewRand(1),
		fault.Rule{Kind: fault.Drop, Prob: 1, MaxInjections: 1}))
	req := r.request(0xB000, 23)
	fired := false
	r.smu.HandleMissArg(req, func(any, Result, pagetable.Entry) { fired = true }, nil)
	r.eng.RunUntil(sim.Second)
	if fired {
		t.Fatal("miss completed despite a dropped command and no timeout")
	}
	if r.smu.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1 (miss stuck, not lost)", r.smu.Outstanding())
	}
	if got := r.smu.Stats().Timeouts; got != 0 {
		t.Fatalf("timeouts = %d, want 0 with the timer disabled", got)
	}
	checkConservation(t, r.smu)
}

// TestTimeoutLongerThanServiceNeverFires pins the non-degenerate direction:
// a generous CmdTimeout must not fire on a healthy command, and the armed
// timer must be collected, not leaked, when the completion lands first.
func TestTimeoutLongerThanServiceNeverFires(t *testing.T) {
	r := newRig(t, 8)
	p := DefaultRetryPolicy()
	p.CmdTimeout = sim.Millisecond // Z-SSD read is ~10.9 µs
	r.smu.SetRetryPolicy(p)
	req := r.request(0xC000, 24)
	var res Result = -1
	r.smu.HandleMissArg(req, func(_ any, rr Result, _ pagetable.Entry) { res = rr }, nil)
	r.eng.Run()
	if res != ResultOK {
		t.Fatalf("res = %v, want ok", res)
	}
	st := r.smu.Stats()
	if st.Timeouts != 0 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want no timeouts and no retries", st)
	}
	if r.eng.Now() >= sim.Millisecond {
		t.Fatalf("run ended at %v — the canceled timeout kept the clock alive", r.eng.Now())
	}
	checkConservation(t, r.smu)
}
