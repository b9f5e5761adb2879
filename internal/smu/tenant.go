package smu

// Per-tenant accounting. Every page-miss request carries the fleet tenant
// it serves (Request.Tenant, 0 on the single-tenant machine), and the SMU
// counts each per-request event once, in that tenant's row, so the fleet
// layer can report throttle/fallback/latency per tenant. Stats sums the
// rows, so the machine-wide counters cover every tenant by construction.
// The rows are pure accounting: they never influence event ordering.

// TenantStats is one tenant's share of the SMU counters. Every field but
// Throttled is summed into the same-named Stats field; Throttled counts
// admissions parked by the QoS layer.
type TenantStats struct {
	Handled      uint64
	Coalesced    uint64
	NoFreePage   uint64
	IOErrors     uint64
	Backlogged   uint64
	BufferMisses uint64
	AnonZeroFill uint64
	LateHits     uint64

	Retries      uint64
	Timeouts     uint64
	UECCFailures uint64

	FramesInstalled uint64
	FramesRecycled  uint64
	RaceYields      uint64

	Throttled uint64 // admissions parked by the QoS layer
}

// EnsureTenants preallocates per-tenant counter rows so the accounting
// path never grows the slice mid-run (the fleet harness calls it once per
// socket before starting load). Shrinking is not supported.
func (s *SMU) EnsureTenants(n int) {
	if n > len(s.tstats) {
		ns := make([]TenantStats, n)
		copy(ns, s.tstats)
		s.tstats = ns
	}
}

// Tenants returns how many tenant rows have been observed (at least 1; the
// single-tenant machine charges everything to tenant 0).
func (s *SMU) Tenants() int { return len(s.tstats) }

// TenantCounters returns a copy of one tenant's counter row; tenants never
// observed return a zero row.
func (s *SMU) TenantCounters(t int) TenantStats {
	if t < 0 || t >= len(s.tstats) {
		return TenantStats{}
	}
	return s.tstats[t]
}

// tstat returns the mutable counter row for a tenant, growing the table on
// first sight of a new tenant. Requests with a negative tenant (never
// produced by the kernel) are charged to tenant 0.
//
//hwdp:hotpath
func (s *SMU) tstat(t int) *TenantStats {
	if t < 0 {
		t = 0
	}
	if t >= len(s.tstats) {
		//hwdp:ignore hotalloc grows at most once per newly observed tenant; the fleet harness preallocates via EnsureTenants so steady-state misses never take this branch
		ns := make([]TenantStats, t+1)
		copy(ns, s.tstats)
		s.tstats = ns
	}
	return &s.tstats[t]
}
