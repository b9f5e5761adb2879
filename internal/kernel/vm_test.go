package kernel

import (
	"bytes"
	"testing"

	"hwdp/internal/mem"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
)

// wait steps the engine until *done.
func (r *rig) wait(t *testing.T, done *bool) {
	t.Helper()
	for !*done && r.eng.Step() {
	}
	if !*done {
		t.Fatal("access never completed")
	}
}

// TestPageAccessMatchesCopy: StorePage and LoadPage cost exactly what a
// whole-page Store and Load cost, on a cold write, a resident read and a
// cold read, and leave the same number of frames holding contents. Only
// the bytes differ: the page ops move descriptors.
func TestPageAccessMatchesCopy(t *testing.T) {
	for _, scheme := range []Scheme{HWDP, OSDP} {
		t.Run(scheme.String(), func(t *testing.T) {
			type step struct {
				at       sim.Time
				resident int
			}
			run := func(pages bool) []step {
				r := newRig(t, 16<<20, 64, withScheme(scheme))
				va, f := r.mmapFile(t, "f", 8, MmapFlags{Fast: scheme == HWDP})
				var steps []step
				do := func(op func(done func())) {
					done := false
					op(func() { done = true })
					r.wait(t, &done)
					steps = append(steps, step{r.eng.Now(), r.mem.ResidentBuffers()})
				}
				buf := make([]byte, mem.PageSize)
				load := func(va pagetable.VAddr) {
					do(func(done func()) {
						if pages {
							r.k.LoadPage(r.th, va, func(mmu.Result, mem.Content, []byte) { done() })
						} else {
							r.k.Load(r.th, va, buf, func(mmu.Result) { done() })
						}
					})
				}
				do(func(done func()) {
					if pages {
						r.k.StorePage(r.th, va, mem.Generated(f.Generator(), 5), func(mmu.Result) { done() })
					} else {
						r.k.Store(r.th, va, buf, func(mmu.Result) { done() })
					}
				})
				load(va)
				load(va + mem.PageSize)
				return steps
			}
			copies, pages := run(false), run(true)
			if copies[0].at == 0 || copies[2].at <= copies[1].at {
				t.Fatalf("accesses took no time: %+v", copies)
			}
			for i := range copies {
				if copies[i] != pages[i] {
					t.Errorf("step %d: Store/Load %+v, StorePage/LoadPage %+v", i, copies[i], pages[i])
				}
			}
		})
	}
}

// TestLoadPageContents: LoadPage hands back the descriptor StorePage
// stored, the DMA'd descriptor of a page never touched, and the bytes of a
// page something materialized.
func TestLoadPageContents(t *testing.T) {
	r := newRig(t, 16<<20, 64)
	va, f := r.mmapFile(t, "f", 8, MmapFlags{Fast: true})
	load := func(va pagetable.VAddr) (c mem.Content, data []byte) {
		done := false
		r.k.LoadPage(r.th, va, func(_ mmu.Result, gotC mem.Content, gotData []byte) {
			c, data, done = gotC, append([]byte(nil), gotData...), true
		})
		r.wait(t, &done)
		return c, data
	}
	word := func(c mem.Content) int {
		w, ok := c.GeneratedBy(f.Generator())
		if !ok {
			return -1
		}
		return w
	}
	done := false
	r.k.StorePage(r.th, va, mem.Generated(f.Generator(), 1<<40), func(mmu.Result) { done = true })
	r.wait(t, &done)
	if c, data := load(va); data != nil || word(c) != 1<<40 {
		t.Fatalf("stored page: word %#x, %d bytes", word(c), len(data))
	}
	if c, data := load(va + mem.PageSize); data != nil || word(c) != 1 {
		t.Fatalf("cold page: word %#x, %d bytes; want the file's page 1", word(c), len(data))
	}

	buf := make([]byte, 1)
	done = false
	r.k.Load(r.th, va+2*mem.PageSize, buf, func(mmu.Result) { done = true })
	r.wait(t, &done)
	want := make([]byte, mem.PageSize)
	mem.Generated(f.Generator(), 2).Materialize(want)
	if _, data := load(va + 2*mem.PageSize); !bytes.Equal(data, want) {
		t.Fatal("materialized page did not come back as its bytes")
	}
}

func TestPageAccessUnalignedPanics(t *testing.T) {
	r := newRig(t, 16<<20, 64)
	va, _ := r.mmapFile(t, "f", 1, MmapFlags{Fast: true})
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned LoadPage did not panic")
		}
	}()
	r.k.LoadPage(r.th, va+8, func(mmu.Result, mem.Content, []byte) {})
}
