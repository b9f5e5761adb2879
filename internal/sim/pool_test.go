package sim

import "testing"

func TestPoolReusesLIFO(t *testing.T) {
	type rec struct{ n int }
	var p Pool[rec]
	a, b := p.Get(), p.Get()
	if a == nil || b == nil || a == b {
		t.Fatalf("empty pool gave %p and %p, want two distinct new records", a, b)
	}
	if a.n != 0 || b.n != 0 {
		t.Fatalf("new records not zero: %+v %+v", *a, *b)
	}
	a.n, b.n = 1, 2
	p.Put(a)
	p.Put(b)
	// Last in, first out; Put keeps the record's fields as they are.
	if got := p.Get(); got != b || got.n != 2 {
		t.Fatalf("first Get = %p (n=%d), want the record Put last, %p (n=2)", got, got.n, b)
	}
	if got := p.Get(); got != a || got.n != 1 {
		t.Fatalf("second Get = %p (n=%d), want %p (n=1)", got, got.n, a)
	}
	if got := p.Get(); got == a || got == b || got.n != 0 {
		t.Fatalf("Get from the drained pool = %p (n=%d), want a new zero record", got, got.n)
	}
}

func TestPoolWarmCycleAllocationBudget(t *testing.T) {
	type rec struct{ buf [8]int }
	var p Pool[rec]
	got := testing.AllocsPerRun(1000, func() {
		a, b := p.Get(), p.Get()
		p.Put(a)
		p.Put(b)
	})
	if got != 0 {
		t.Fatalf("warm Get/Put cycle allocates %.1f objects/op, want 0", got)
	}
}
