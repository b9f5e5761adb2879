// Package pooltest is the poolpair analyzer fixture: sim.Pool records
// taken outside the sim package, with releasing, handing-off, leaking and
// suppressed callers.
package pooltest

import "hwdp/internal/sim"

type entry struct{ next *entry }

type owner struct {
	entries sim.Pool[entry]
	live    []*entry
	cur     *entry
}

// getter has a Get method of its own: not a sim.Pool, so not a pool.
type getter struct{}

func (getter) Get() *entry { return nil }

func (p *owner) okSimple() {
	e := p.entries.Get()
	p.entries.Put(e)
}

func (p *owner) okDefer() {
	e := p.entries.Get()
	defer p.entries.Put(e)
	work()
}

func (p *owner) okHandOffAppend() {
	e := p.entries.Get()
	p.live = append(p.live, e)
}

func (p *owner) okHandOffStore(b bool) {
	e := p.entries.Get()
	if b {
		p.cur = e
		return
	}
	p.entries.Put(e)
}

func (p *owner) okStoreDirect() {
	p.cur = p.entries.Get()
}

func (p *owner) okReturn() *entry {
	e := p.entries.Get()
	return e
}

func (p *owner) okBranches(b bool) {
	e := p.entries.Get()
	if b {
		p.entries.Put(e)
		return
	}
	p.entries.Put(e)
}

func (p *owner) okLocalPool() {
	var pool sim.Pool[entry]
	e := pool.Get()
	pool.Put(e)
}

func (p *owner) okNotAPool(g getter) {
	g.Get()
}

func (p *owner) leakEarlyReturn(b bool) error {
	e := p.entries.Get() // want `pooled record "e" from p\.entries is not released on every path: a path reaches function exit without p\.entries\.Put or a hand-off`
	if b {
		return errFail
	}
	p.entries.Put(e)
	return nil
}

func (p *owner) leakFallOff(b bool) {
	e := p.entries.Get() // want `pooled record "e" from p\.entries is not released on every path`
	if b {
		p.entries.Put(e)
	}
}

func (p *owner) leakDiscard() {
	p.entries.Get() // want `result of p\.entries\.Get is discarded: the pooled record leaks \(hand it back with p\.entries\.Put\)`
}

func (p *owner) leakBlank() {
	_ = p.entries.Get() // want `result of p\.entries\.Get is discarded`
}

func (p *owner) leakInLoop(n int) {
	for i := 0; i < n; i++ {
		e := p.entries.Get() // want `pooled record "e" from p\.entries is not released on every path`
		e.next = nil
	}
}

func (p *owner) suppressed(b bool) {
	e := p.entries.Get() //hwdp:ignore poolpair ownership recorded in the caller's side table
	if b {
		return
	}
	p.entries.Put(e)
}

// An event callback owns the record its argument carries.

func (p *owner) okCallback(a any) {
	e := a.(*entry)
	next := e.next
	*e = entry{}
	p.entries.Put(e)
	work2(next)
}

func (p *owner) leakCallback(a any) {
	e := a.(*entry) // want `pooled record "e" \(a \*entry unpacked from an event argument\) is not released on every path: a path reaches function exit without its pool's Put or a hand-off`
	next := e.next
	work2(next)
}

// A call that only reads a record's data field hands nothing off; one that
// takes a callback the record carries, or calls a method on it, does.

type thread struct{}

func (*thread) wake() {}

type job struct {
	th    *thread
	since int
	fn    func()
}

func (j *job) run() {}

type jobs struct{ pool sim.Pool[job] }

func (q *jobs) leakFieldArg(a any) {
	j := a.(*job) // want `pooled record "j" \(a \*job unpacked from an event argument\) is not released on every path`
	work3(j.since)
}

func (q *jobs) leakFieldArgExpr(a any, now int) {
	j := a.(*job) // want `pooled record "j" \(a \*job unpacked from an event argument\) is not released on every path`
	work3(now - j.since)
}

func (q *jobs) leakFieldPassed() {
	j := q.pool.Get() // want `pooled record "j" from q\.pool is not released on every path`
	kill(j.th)
}

func (q *jobs) leakFieldMethod() {
	j := q.pool.Get() // want `pooled record "j" from q\.pool is not released on every path`
	j.th.wake()
}

func (q *jobs) okFieldThenPut(a any) {
	j := a.(*job)
	work3(j.since)
	*j = job{}
	q.pool.Put(j)
}

func (q *jobs) okCallbackField() {
	j := q.pool.Get()
	post(j.fn)
}

func (q *jobs) okMethodValue() {
	j := q.pool.Get()
	post(j.run)
}

func (q *jobs) okMethodCall() {
	j := q.pool.Get()
	j.run()
}

func (q *jobs) okAddressOf() {
	j := q.pool.Get()
	keep(&j)
}

type other struct{}

func (p *owner) okNotPooled(a any) {
	o := a.(*other)
	_ = o
}

var errFail error

func work() {}

func work2(*entry) {}

func work3(int) {}

func kill(*thread) {}

func post(func()) {}

func keep(**job) {}
