package kernel

// Machine-wide invariant stress test: random mixed operations (reads,
// writes, msyncs, anonymous traffic) across multiple threads and schemes,
// with structural invariants checked throughout:
//
//   - the page-cache audit (Kernel.AuditPageCache) is clean: one page per
//     frame, no page aliasing (the PMSHR's core guarantee), every synced
//     present PTE of a file VMA points at the frame the page cache records
//     for that file page, and resident pages never exceed physical frames;
//   - every Load observes exactly the bytes last Stored (or the file's
//     pristine content).

import (
	"bytes"
	"fmt"
	"testing"

	"hwdp/internal/fs"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
	"hwdp/internal/sim"
)

// checkInvariants runs the kernel's page-cache audit and fails the test on
// any violation.
func checkInvariants(t *testing.T, r *rig) {
	t.Helper()
	if vs := r.k.AuditPageCache(); len(vs) != 0 {
		t.Fatalf("page-cache audit: %v", vs)
	}
}

func TestStressMixedOperations(t *testing.T) {
	for _, scheme := range []Scheme{OSDP, SWDP, HWDP} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			r := newRig(t, 8<<20, 256, withScheme(scheme), kptedEvery(2*sim.Millisecond))
			const filePages = 24576 // 96 MiB file on an 8 MiB machine
			fileVA, _ := r.mmapFile(t, "stress", filePages, MmapFlags{Fast: true})
			anonVA := r.mmapAnon(t, 2048, true)

			threads := []*Thread{r.th, r.k.NewThread(r.p, 2)}
			rng := sim.NewRand(uint64(scheme) + 99)
			// Model of expected contents: file pages we wrote, anon pages
			// we wrote.
			fileWrites := map[int]byte{}
			anonWrites := map[int]byte{}
			pending := 0
			ops := 0
			const totalOps = 3000
			buf0 := make([]byte, 8)
			buf1 := make([]byte, 8)

			var step func(th *Thread, buf []byte)
			step = func(th *Thread, buf []byte) {
				if ops >= totalOps {
					pending--
					return
				}
				ops++
				switch rng.Intn(10) {
				case 0, 1: // file write
					page := rng.Intn(filePages)
					v := byte(rng.Intn(256))
					fileWrites[page] = v
					r.k.Store(th, fileVA+pagetable.VAddr(page)*4096, []byte{v}, func(mmu.Result) {
						step(th, buf)
					})
				case 2: // anon write
					page := rng.Intn(2048)
					v := byte(rng.Intn(255)) + 1
					anonWrites[page] = v
					r.k.Store(th, anonVA+pagetable.VAddr(page)*4096, []byte{v}, func(mmu.Result) {
						step(th, buf)
					})
				case 3: // anon read + verify
					page := rng.Intn(2048)
					want := anonWrites[page]
					r.k.Load(th, anonVA+pagetable.VAddr(page)*4096, buf[:1], func(mmu.Result) {
						if buf[0] != want {
							t.Errorf("anon page %d: got %d want %d", page, buf[0], want)
						}
						step(th, buf)
					})
				case 4: // msync the file region occasionally
					if rng.Intn(4) == 0 {
						r.k.Msync(th, fileVA, func() { step(th, buf) })
					} else {
						step(th, buf)
					}
				default: // file read + verify first byte
					page := rng.Intn(filePages)
					r.k.Load(th, fileVA+pagetable.VAddr(page)*4096, buf[:8], func(mmu.Result) {
						if v, wrote := fileWrites[page]; wrote {
							if buf[0] != v {
								t.Errorf("file page %d: got %d want %d", page, buf[0], v)
							}
						} else {
							pristine := make([]byte, fs.PageBytes)
							fs.SeededInit(77)(page, pristine)
							if !bytes.Equal(buf[:8], pristine[:8]) {
								t.Errorf("file page %d: pristine content wrong", page)
							}
						}
						step(th, buf)
					})
				}
			}
			pending = len(threads)
			step(threads[0], buf0)
			step(threads[1], buf1)
			checked := 0
			for pending > 0 && r.eng.Step() {
				if ops%500 == 250 && checked < ops/500 {
					checked = ops / 500
					checkInvariants(t, r)
				}
			}
			if pending != 0 {
				t.Fatal("stress run hung")
			}
			checkInvariants(t, r)
			st := r.k.Stats()
			if scheme == HWDP && r.smu.Stats().Handled == 0 {
				t.Fatal("HWDP stress never used the SMU")
			}
			if st.Evictions == 0 {
				t.Fatalf("stress run created no memory pressure: %+v", st)
			}
		})
	}
}

// TestStressDeterminism: the same seed must give bit-identical virtual
// time and counters.
func TestStressDeterminism(t *testing.T) {
	run := func() (sim.Time, Stats, uint64) {
		r := newRig(t, 16<<20, 128, withScheme(HWDP), kptedEvery(2*sim.Millisecond))
		va, _ := r.mmapFile(t, "d", 8192, MmapFlags{Fast: true})
		rng := sim.NewRand(5)
		done := 0
		var step func()
		step = func() {
			if done >= 2000 {
				return
			}
			done++
			r.k.Access(r.th, va+pagetable.VAddr(rng.Intn(8192)*4096), rng.Intn(5) == 0,
				func(mmu.Result) { step() })
		}
		step()
		r.eng.RunUntil(10 * sim.Second)
		return r.eng.Now(), r.k.Stats(), r.dev.Stats().Reads
	}
	t1, s1, d1 := run()
	t2, s2, d2 := run()
	if t1 != t2 || s1 != s2 || d1 != d2 {
		t.Fatalf("nondeterminism:\n%v %+v %d\n%v %+v %d", t1, s1, d1, t2, s2, d2)
	}
	_ = fmt.Sprint()
}
