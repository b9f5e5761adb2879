package kernel

// Tests for the page-writeback path: which frame a write frees when its
// page leaves the cache mid-write, and what an msync leaves behind on
// anonymous memory.

import (
	"bytes"
	"testing"

	"hwdp/internal/mem"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
	"hwdp/internal/ssd"
)

func withDirtyRatio(frac float64) rigOpt { return func(c *Config) { c.DirtyRatioFrac = frac } }

// store writes buf at va and waits for the access to finish.
func (r *rig) store(t *testing.T, va pagetable.VAddr, buf []byte) {
	t.Helper()
	done := false
	r.k.Store(r.th, va, buf, func(mmu.Result) { done = true })
	r.wait(t, &done)
}

// checkNoLeakedFrames lets in-flight I/O drain, then balances the frame
// ledger: every frame the allocator has handed out is named by the kernel
// (page cache, present PTEs, WAL buffer) or held by the SMU.
func checkNoLeakedFrames(t *testing.T, r *rig) {
	t.Helper()
	r.eng.RunUntil(r.eng.Now() + 10*sim.Millisecond)
	outstanding := r.mem.Allocs() - r.mem.Frees()
	accounted := uint64(r.k.AccountedFrames() + r.smu.FramesHeld())
	if outstanding != accounted {
		t.Fatalf("frame leak: %d outstanding, %d accounted", outstanding, accounted)
	}
}

// TestUnmapDuringWriteback: when a page's last mapping goes while an
// msync or flusher write of it is in flight, the page leaves the cache at
// once and that write's completion frees its frame.
func TestUnmapDuringWriteback(t *testing.T) {
	cases := []struct {
		name    string
		scheme  Scheme
		flusher bool
	}{
		{"msync/HWDP", HWDP, false},
		{"msync/OSDP", OSDP, false},
		{"flusher/OSDP", OSDP, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// 16384 frames: a hard dirty limit of 16 pages, a background
			// limit of 8.
			r := newRig(t, 64<<20, 512, withScheme(tc.scheme), withDirtyRatio(16.0/16384))
			va, _ := r.mmapFile(t, "f", 32, MmapFlags{Fast: true})
			synced := true
			if tc.flusher {
				// The ninth dirty page passes the background limit and
				// starts the flusher.
				for i := 0; i < 9; i++ {
					r.store(t, va+pagetable.VAddr(i)*4096, []byte{byte(i + 1)})
				}
			} else {
				r.store(t, va, []byte("dirty"))
				synced = false
				r.k.Msync(r.th, va, func() { synced = true })
			}
			// Run until a cached page is under writeback.
			var pg *Page
			for pg == nil && r.eng.Step() {
				for i := range r.k.pages {
					if p := &r.k.pages[i]; p.wb && p.cached {
						pg = p
						break
					}
				}
			}
			if pg == nil {
				t.Fatal("no write started")
			}
			vma := r.p.findVMA(va)
			unmapped := false
			r.k.Munmap(r.th, va, func() { unmapped = true })
			for !vma.dead && r.eng.Step() {
			}
			if !pg.wb || pg.cached {
				t.Fatalf("the unmap did not find the write in flight: wb %v cached %v", pg.wb, pg.cached)
			}
			r.wait(t, &unmapped)
			r.wait(t, &synced)
			checkNoLeakedFrames(t, r)
			checkInvariants(t, r)
		})
	}
}

// TestMsyncAnonKeepsData: msync writes a dirty anonymous page to swap and
// cleans it, so the page is swap-backed from then on. When memory
// pressure later evicts it clean, the reload must read the msync'd bytes
// back from swap, not zero-fill the page as a first touch.
func TestMsyncAnonKeepsData(t *testing.T) {
	for _, scheme := range []Scheme{HWDP, OSDP} {
		t.Run(scheme.String(), func(t *testing.T) {
			const pages = 192 // twice the machine's 96 frames
			r := newRig(t, 96*mem.PageSize, 16, withScheme(scheme))
			va := r.mmapAnon(t, pages, true)
			marker := []byte("written before msync, kept")
			r.store(t, va, marker)
			synced := false
			r.k.Msync(r.th, va, func() { synced = true })
			r.wait(t, &synced)
			for i := 1; i < pages; i++ {
				r.access(t, r.th, va+pagetable.VAddr(i)*4096, false)
			}
			if e, _ := r.p.AS.Table.Lookup(va); e.Present() {
				t.Fatal("page 0 survived the flood; nothing was evicted")
			}
			got := make([]byte, len(marker))
			loaded := false
			r.k.Load(r.th, va, got, func(mmu.Result) { loaded = true })
			r.wait(t, &loaded)
			if !bytes.Equal(got, marker) {
				t.Fatalf("reload after eviction = %q, want %q", got, marker)
			}
		})
	}
}

// TestCoalescedWriteMissesDirtyOnce: two threads write-miss the same
// cold page under HWDP, so the SMU coalesces the second miss onto the
// first and both resolve through the same PTE. The page turns dirty once,
// so the dirty-page count rises by exactly one.
func TestCoalescedWriteMissesDirtyOnce(t *testing.T) {
	// A hard limit of half of memory: nothing here throttles.
	r := newRig(t, 64<<20, 512, withScheme(HWDP), withDirtyRatio(0.5))
	va, _ := r.mmapFile(t, "f", 4, MmapFlags{Fast: true})
	before := r.k.dirtyPages
	th2 := r.k.NewThread(r.p, 2)
	done := 0
	for _, th := range []*Thread{r.th, th2} {
		r.k.Access(th, va, true, func(res mmu.Result) {
			if res.Outcome != mmu.OutcomeHW {
				t.Errorf("write miss resolved as %v, want a hardware miss", res.Outcome)
			}
			done++
		})
	}
	for done < 2 && r.eng.Step() {
	}
	if done != 2 {
		t.Fatalf("%d of 2 write misses completed", done)
	}
	if n := r.smu.Stats().Coalesced; n != 1 {
		t.Fatalf("SMU coalesced %d misses, want 1", n)
	}
	if e, _ := r.p.AS.Table.Lookup(va); !e.Present() || !e.Dirty() {
		t.Fatalf("page after two writes: present %v dirty %v", e.Present(), e.Dirty())
	}
	if got := r.k.dirtyPages - before; got != 1 {
		t.Fatalf("dirty pages rose by %d, want 1", got)
	}
}

// TestMsyncDeepQueue: one OSDP thread's msync of 300 dirty pages keeps all
// 300 writes in flight on the thread's one OS queue at once, more than a
// 256-entry submission ring would hold. The queue has no depth limit: on
// a slow device every write completes, none times out, and the page cache
// stays consistent.
func TestMsyncDeepQueue(t *testing.T) {
	prof := ssd.ZSSD
	prof.JitterFrac = 0
	prof.Write4K = 100 * sim.Microsecond
	r := newRigProf(t, 64<<20, 512, prof, withScheme(OSDP))
	const pages = 300
	va, _ := r.mmapFile(t, "f", pages, MmapFlags{})
	for i := 0; i < pages; i++ {
		r.store(t, va+pagetable.VAddr(i)*mem.PageSize, []byte{byte(i)})
	}
	writes := r.dev.Stats().Writes
	done, peak := false, 0
	r.k.Msync(r.th, va, func() { done = true })
	for deadline := r.eng.Now() + sim.Second; !done && r.eng.Now() < deadline && r.eng.Step(); {
		peak = max(peak, r.dev.Inflight())
	}
	if !done {
		t.Fatal("msync hung")
	}
	if peak != pages {
		t.Fatalf("peak in-flight commands = %d, want all %d writes at once", peak, pages)
	}
	if n := r.dev.Stats().Writes - writes; n != pages {
		t.Fatalf("device writes = %d, want %d", n, pages)
	}
	if st := r.k.Stats(); st.BlockTimeouts != 0 || st.BlockRetries != 0 {
		t.Fatalf("block timeouts %d, retries %d, want 0", st.BlockTimeouts, st.BlockRetries)
	}
	if v := r.k.AuditPageCache(); len(v) != 0 {
		t.Fatalf("page cache audit: %v", v)
	}
}
