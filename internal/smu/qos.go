package smu

import (
	"fmt"

	"hwdp/internal/metrics"
	"hwdp/internal/pagetable"
	"hwdp/internal/trace"
)

// QoS admission layer (fleet multi-tenancy). With QoS off — the default —
// the SMU admits requests strictly in arrival order (today's FIFO), and
// every run is byte-identical to a build without this file. SetQoS arms
// weighted-fair admission over the three shared resources tenants contend
// on: PMSHR slots, free page queue frames, and NVMe submission-queue
// occupancy. A request from a tenant over any of its caps parks in that
// tenant's FIFO instead of entering service; parked requests are re-admitted
// round-robin across tenants as resources free up (on every entry
// retirement and every free-queue refill). Liveness needs no timer: a
// tenant is only ever parked while it has at least one entry in service, so
// a finish — or a kpoold refill, for the frame gate — always follows to
// drain it.

// QoSConfig configures per-tenant weighted-fair admission. Weights are
// relative service shares (nil = equal); each tenant's PMSHR slot cap is
// its weighted share of the PMSHR (at least 1), and its in-flight NVMe
// command cap is 3/4 of that (at least 1), so a noisy tenant saturates its
// own share and parks instead of filling the device queue.
type QoSConfig struct {
	Tenants int
	Weights []float64
}

// qosState is the armed admission layer: per-tenant caps, current
// holdings, and the per-tenant park queues drained round-robin.
type qosState struct {
	cfg     QoSConfig
	slotCap []int // PMSHR slots a tenant may hold
	ioCap   []int // NVMe commands a tenant may have in flight
	slots   []int // PMSHR slots currently held
	ios     []int // NVMe commands currently in flight
	parked  []reqQueue
	rr      int // next tenant the drain scan starts from
	total   int // parked waiters across all tenants
}

// SetQoS arms (or, with Tenants < 2, disarms) the weighted-fair admission
// layer. Configure before the run starts: switching mid-run would strand
// holdings. Weights, when non-nil, must have one entry per tenant.
func (s *SMU) SetQoS(cfg QoSConfig) {
	if cfg.Tenants < 2 {
		s.qos = nil
		return
	}
	if cfg.Weights != nil && len(cfg.Weights) != cfg.Tenants {
		panic(fmt.Sprintf("smu: QoS weights length %d != %d tenants", len(cfg.Weights), cfg.Tenants))
	}
	n := cfg.Tenants
	q := &qosState{
		cfg:     cfg,
		slotCap: make([]int, n),
		ioCap:   make([]int, n),
		slots:   make([]int, n),
		ios:     make([]int, n),
		parked:  make([]reqQueue, n),
	}
	sum := 0.0
	for t := 0; t < n; t++ {
		if cfg.Weights == nil {
			sum += 1
			continue
		}
		if cfg.Weights[t] <= 0 {
			panic(fmt.Sprintf("smu: QoS weight for tenant %d must be positive", t))
		}
		sum += cfg.Weights[t]
	}
	for t := 0; t < n; t++ {
		w := 1.0
		if cfg.Weights != nil {
			w = cfg.Weights[t]
		}
		share := int(w / sum * float64(len(s.pmshr)))
		if share < 1 {
			share = 1
		}
		q.slotCap[t] = share
		q.ioCap[t] = share * 3 / 4
		if q.ioCap[t] < 1 {
			q.ioCap[t] = 1
		}
	}
	s.qos = q
	s.EnsureTenants(n)
}

// QoSWait exposes the throttle wait-time histogram (picoseconds): how long
// each QoS-parked request waited before re-admission.
func (s *SMU) QoSWait() *metrics.Histogram { return s.qosWait }

// qosTenant clamps a request's tenant into the configured range (requests
// from tenants the config does not know are charged to tenant 0).
func (q *qosState) qosTenant(t int) int {
	if t < 0 || t >= q.cfg.Tenants {
		return 0
	}
	return t
}

// qosBlocked reports whether admitting the request now would take the
// tenant over one of its caps. The frame gate only applies to tenants
// already in service: the last Tenants-1 available frames are held back,
// one for each other tenant, so a noisy tenant cannot drain the queue dry
// and bounce everyone else's first miss to the OS.
//
//hwdp:hotpath
func (s *SMU) qosBlocked(req Request) bool {
	q := s.qos
	t := q.qosTenant(req.Tenant)
	if q.slots[t] >= q.slotCap[t] {
		return true
	}
	if req.Block.LBA != pagetable.AnonFirstTouch && q.ios[t] >= q.ioCap[t] {
		return true
	}
	if q.slots[t] >= 1 {
		fq := s.queueFor(req.Core)
		if fq.Len()+fq.Buffered() <= q.cfg.Tenants-1 {
			return true
		}
	}
	return false
}

// qosCharge records the resources an admitted request now holds; released
// by qosRelease when its entry retires.
//
//hwdp:hotpath
func (s *SMU) qosCharge(tenant int, io bool) {
	q := s.qos
	if q == nil {
		return
	}
	t := q.qosTenant(tenant)
	q.slots[t]++
	if io {
		q.ios[t]++
	}
}

// qosRelease returns a retiring entry's holdings.
//
//hwdp:hotpath
func (s *SMU) qosRelease(tenant int, io bool) {
	q := s.qos
	if q == nil {
		return
	}
	t := q.qosTenant(tenant)
	q.slots[t]--
	if io {
		q.ios[t]--
	}
}

// qosPark enqueues a request blocked by its tenant's caps.
//
//hwdp:hotpath
func (s *SMU) qosPark(req Request, done doneRef) {
	q := s.qos
	t := q.qosTenant(req.Tenant)
	now := s.eng.Now()
	q.parked[t].push(pendingReq{req, done, now})
	q.total++
	s.tstat(req.Tenant).Throttled++
	req.Trace.Mark(trace.LayerSMU, "qos-throttle", now)
	s.psi.BeginStall(metrics.StallQoSThrottle, int64(now))
}

// qosDrain re-admits parked requests whose tenant is back under its caps,
// round-robin across tenants for fairness. Called after every entry
// retirement and free-queue refill; a no-op when QoS is off or nothing is
// parked. Each pass either re-admits a waiter (strict progress: the gates
// were just checked and re-admission is synchronous) or advances the scan,
// so the loop terminates.
//
//hwdp:hotpath
func (s *SMU) qosDrain() {
	q := s.qos
	if q == nil || q.total == 0 {
		return
	}
	n := q.cfg.Tenants
	for scanned := 0; scanned < n && q.total > 0; {
		t := q.rr % n
		if p := &q.parked[t]; p.len() > 0 && !s.qosBlocked(p.front().req) {
			w := p.pop()
			q.total--
			now := s.eng.Now()
			w.req.Trace.AddSpan(trace.LayerSMU, "qos-throttle-wait", w.at, now)
			s.qosWait.Record(int64(now - w.at))
			s.psi.EndStall(metrics.StallQoSThrottle, int64(now), int64(now-w.at))
			q.rr = (t + 1) % n
			scanned = 0
			s.admit(w.req, w.done)
			continue
		}
		q.rr = (t + 1) % n
		scanned++
	}
}
