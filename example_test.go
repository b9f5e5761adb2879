package hwdp_test

import (
	"encoding/binary"
	"fmt"

	"hwdp"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
)

// The simulation is fully deterministic, so these examples assert exact
// latencies: one cold 4 KiB page miss on the Z-SSD profile costs 19.72 µs
// through the OS fault path (doorbell and interrupt wire latencies
// included) and 11.05 µs through the SMU.

func Example_schemes() {
	for _, scheme := range []hwdp.Scheme{hwdp.OSDP, hwdp.SWOnly, hwdp.HWDP} {
		sys := hwdp.New(hwdp.Config{Scheme: scheme, MemoryMB: 16, Deterministic: true})
		lat, err := sys.ColdPageLatency()
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-8v %v\n", scheme, lat)
	}
	// Output:
	// OSDP     19.72us
	// SW-only  13.00us
	// HWDP     11.05us
}

func Example_devices() {
	for _, dev := range []hwdp.Device{hwdp.ZSSD, hwdp.OptaneSSD, hwdp.OptaneDCPMM} {
		sys := hwdp.New(hwdp.Config{
			Scheme: hwdp.HWDP, Device: dev, MemoryMB: 16, Deterministic: true,
		})
		lat, err := sys.ColdPageLatency()
		if err != nil {
			panic(err)
		}
		fmt.Println(lat)
	}
	// Output:
	// 11.05us
	// 6.65us
	// 2.25us
}

func ExampleSystem_CreateStore() {
	sys := hwdp.New(hwdp.Config{Scheme: hwdp.HWDP, MemoryMB: 16, Deterministic: true})
	db, err := sys.CreateStore("records", 1024)
	if err != nil {
		panic(err)
	}
	if err := db.Put(7, 3); err != nil {
		panic(err)
	}
	_, version, err := db.Get(7)
	if err != nil {
		panic(err)
	}
	fmt.Println("version:", version)
	// Output:
	// version: 3
}

func ExampleSystem_MmapAnon() {
	sys := hwdp.New(hwdp.Config{Scheme: hwdp.HWDP, MemoryMB: 16, Deterministic: true})
	heap, err := sys.MmapAnon(32)
	if err != nil {
		panic(err)
	}
	if err := heap.Write(12345, []byte("hello")); err != nil {
		panic(err)
	}
	buf := make([]byte, 5)
	if err := heap.Read(12345, buf); err != nil {
		panic(err)
	}
	fmt.Printf("%s, zero-filled: %v\n", buf, sys.Stats().AnonZeroFills > 0)
	// Output:
	// hello, zero-filled: true
}

// ExampleSystem_Raw drives the underlying machine directly for a workload
// the facade does not offer: a breadth-first search over a memory-mapped
// adjacency file three times the size of memory. Each vertex's neighbor
// list fills its own page, and the walk only knows which page to read next
// once the current one has arrived, so every cold vertex puts one page
// miss on the critical path. Each page's content is checked on arrival.
func ExampleSystem_Raw() {
	const vertices, degree = 6000, 12
	neighbor := func(v uint64, i int) uint64 {
		return (v*1099511628211 + uint64(i) + 1) * 0x9e3779b97f4a7c15 % vertices
	}
	for _, scheme := range []hwdp.Scheme{hwdp.OSDP, hwdp.HWDP} {
		sys := hwdp.New(hwdp.Config{Scheme: scheme, MemoryMB: 8, Seed: 7})
		m := sys.Raw()
		base, _, err := m.MapFile("graph.adj", vertices, func(page int, buf []byte) {
			for i := 0; i < degree; i++ {
				binary.LittleEndian.PutUint64(buf[8*i:], neighbor(uint64(page), i))
			}
		}, m.FastFlags())
		if err != nil {
			panic(err)
		}
		th := m.WorkloadThread(0)
		seen := make([]bool, vertices)
		seen[0] = true
		queue, visited, done := []uint64{0}, 1, false
		buf := make([]byte, 8*degree)
		var visit func()
		visit = func() {
			if len(queue) == 0 {
				done = true
				return
			}
			v := queue[0]
			queue = queue[1:]
			m.K.Load(th, base+pagetable.VAddr(v)*4096, buf, func(mmu.Result) {
				for i := 0; i < degree; i++ {
					n := binary.LittleEndian.Uint64(buf[8*i:])
					if n != neighbor(v, i) {
						panic(fmt.Sprintf("vertex %d: edge %d reads %d", v, i, n))
					}
					if !seen[n] {
						seen[n] = true
						visited++
						queue = append(queue, n)
					}
				}
				m.CPU.UserExec(th.HW, 3000, visit) // per-vertex user work
			})
		}
		visit()
		m.RunWhile(func() bool { return !done })
		// A hardware miss bounced to the OS counts in both miss counters.
		ms := m.MMU.Stats()
		fmt.Printf("%-5v visited %d vertices in %v, %d misses\n",
			scheme, visited, sys.Now(), ms.HWMisses+ms.OSFaults-ms.HWBounced)
	}
	// Output:
	// OSDP  visited 3211 vertices in 67.243ms, 3211 misses
	// HWDP  visited 3211 vertices in 45.671ms, 3211 misses
}
