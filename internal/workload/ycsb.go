package workload

import (
	"fmt"

	"hwdp/internal/core"
	"hwdp/internal/kernel"
	"hwdp/internal/kvs"
	"hwdp/internal/mem"
	"hwdp/internal/sim"
)

// Per-op user-side instruction budgets. A RocksDB point lookup runs
// noticeably more user code than FIO's memcpy loop (memtable probe, block
// handling, comparator, YCSB client); these budgets set the compute :
// miss-latency ratio that separates the YCSB gains (5.3–27.3%) from the
// FIO/DBBench gains (29.4–57.1%) in Fig. 13.
const (
	DBBenchOpInstr = 26000
	YCSBOpInstr    = 40000
	YCSBScanPerRec = 9000
)

// KVOp is the per-op mix of a KV workload.
type KVOp int

// Operation kinds.
const (
	OpRead KVOp = iota
	OpUpdate
	OpInsert
	OpScan
	OpRMW
)

// KV drives a kvs.Store with a YCSB-style mix.
type KV struct {
	Sys     *core.System
	Store   *kvs.Store
	Name    string
	OpInstr uint64

	// Mix is cumulative probability thresholds over [read, update, insert,
	// scan, rmw].
	readP, updateP, insertP, scanP float64
	gen                            KeyGen
	latest                         *Latest
	insertFrontier                 uint64
	scanMax                        int
	versions                       map[uint64]uint64
	ops                            map[*kernel.Thread]*kvOp
}

// kvOp carries one thread's in-flight op through its phases. A thread
// runs one op at a time, so each thread reuses one carrier whose phases
// are bound once.
type kvOp struct {
	kv   *KV
	th   *kernel.Thread
	rng  *sim.Rand
	kind KVOp
	done func(error)

	// The scan's start key and length, drawn before its extra user work.
	scanStart uint64
	scanN     int

	execFn, op2Fn, scanFn func()
	gotFn                 func(version uint64, rec mem.Content, err error)
	scannedFn             func(scanned int, err error)
}

func newKV(sys *core.System, st *kvs.Store, name string, read, update, insert, scan float64) *KV {
	return &KV{
		Sys: sys, Store: st, Name: name, OpInstr: YCSBOpInstr,
		readP: read, updateP: read + update, insertP: read + update + insert,
		scanP:    read + update + insert + scan,
		scanMax:  16,
		versions: make(map[uint64]uint64),
		ops:      make(map[*kernel.Thread]*kvOp),
	}
}

// NewDBBenchReadRandom is RocksDB's `db_bench readrandom`: 100% uniform
// point lookups.
func NewDBBenchReadRandom(sys *core.System, st *kvs.Store) *KV {
	kv := newKV(sys, st, "DBBench-readrandom", 1, 0, 0, 0)
	kv.OpInstr = DBBenchOpInstr
	kv.gen = Uniform{N: st.Keys()}
	return kv
}

// NewYCSB builds one of the standard YCSB core workloads (A–F) over the
// store.
func NewYCSB(sys *core.System, st *kvs.Store, variant byte) (*KV, error) {
	switch variant {
	case 'A', 'B', 'C', 'D', 'E', 'F':
	default:
		return nil, fmt.Errorf("workload: unknown YCSB variant %q", variant)
	}
	n := st.Keys()
	zipf := Scrambled{Gen: NewZipfian(n, ZipfTheta), N: n}
	switch variant {
	case 'A': // update heavy: 50/50
		kv := newKV(sys, st, "YCSB-A", 0.5, 0.5, 0, 0)
		kv.gen = zipf
		return kv, nil
	case 'B': // read mostly: 95/5
		kv := newKV(sys, st, "YCSB-B", 0.95, 0.05, 0, 0)
		kv.gen = zipf
		return kv, nil
	case 'C': // read only
		kv := newKV(sys, st, "YCSB-C", 1, 0, 0, 0)
		kv.gen = zipf
		return kv, nil
	case 'D': // read latest: 95 read / 5 insert
		kv := newKV(sys, st, "YCSB-D", 0.95, 0, 0.05, 0)
		kv.insertFrontier = n / 2
		kv.latest = NewLatest(kv.insertFrontier)
		return kv, nil
	case 'E': // short ranges: 95 scan / 5 insert
		kv := newKV(sys, st, "YCSB-E", 0, 0, 0.05, 0.95)
		kv.insertFrontier = n / 2
		kv.gen = zipf
		return kv, nil
	case 'F': // read-modify-write: 50 read / 50 RMW
		kv := newKV(sys, st, "YCSB-F", 0.5, 0, 0, 0)
		kv.gen = zipf
		return kv, nil
	default:
		return nil, fmt.Errorf("workload: unknown YCSB variant %q", variant)
	}
}

func (kv *KV) pickKind(r *sim.Rand) KVOp {
	u := r.Float64()
	switch {
	case u < kv.readP:
		return OpRead
	case u < kv.updateP:
		return OpUpdate
	case u < kv.insertP:
		return OpInsert
	case u < kv.scanP:
		return OpScan
	default:
		return OpRMW
	}
}

func (kv *KV) nextKey(r *sim.Rand) uint64 {
	if kv.latest != nil {
		return kv.latest.Next(r)
	}
	return kv.gen.Next(r)
}

// KVSyscallPerOp is the baseline kernel time a KV client op spends in
// syscalls unrelated to demand paging (timekeeping, occasional allocator
// brk/madvise, scheduler ticks amortized per op). It is identical under
// every scheme and anchors the Fig. 15 kernel-instruction comparison.
const KVSyscallPerOp = 800 * sim.Nanosecond

// Op implements Workload: client-side compute plus baseline syscall work,
// then the storage operation through the mmap path, with read validation
// (stale versions are fine — concurrent updaters — but corruption is not).
//
//hwdp:hotpath
func (kv *KV) Op(th *kernel.Thread, rng *sim.Rand, done func(error)) {
	kind := kv.pickKind(rng)
	op := kv.ops[th]
	if op == nil {
		op = kv.newOp(th)
	}
	op.rng, op.kind, op.done = rng, kind, done
	kv.Sys.CPU.UserExec(th.HW, kv.OpInstr, op.execFn)
}

// newOp builds th's carrier and binds its phases.
//
//hwdp:coldpath runs once per thread, on its first op
func (kv *KV) newOp(th *kernel.Thread) *kvOp {
	op := &kvOp{kv: kv, th: th}
	op.execFn, op.op2Fn, op.scanFn = op.exec, op.op2, op.scan
	op.gotFn, op.scannedFn = op.got, op.scanned
	kv.ops[th] = op
	return op
}

// exec runs the op's baseline syscall work after its user work.
//
//hwdp:hotpath
func (op *kvOp) exec() { op.kv.Sys.CPU.KernelExec(op.th.HW, KVSyscallPerOp, op.op2Fn) }

// op2 issues the storage operation.
//
//hwdp:hotpath
func (op *kvOp) op2() {
	kv, th, rng := op.kv, op.th, op.rng
	switch op.kind {
	case OpRead:
		key := kv.nextKey(rng)
		kv.Store.Get(th, key, op.gotFn)
	case OpUpdate:
		key := kv.nextKey(rng)
		kv.versions[key]++
		kv.Store.Put(th, key, kv.versions[key], op.take())
	case OpInsert:
		key := kv.insertFrontier
		if key >= kv.Store.Keys() {
			key = kv.nextKey(rng) // table full: degrade to update
		} else {
			kv.insertFrontier++
			if kv.latest != nil && kv.insertFrontier%1024 == 0 {
				kv.latest.SetMax(kv.insertFrontier)
			}
		}
		kv.versions[key]++
		kv.Store.Put(th, key, kv.versions[key], op.take())
	case OpScan:
		op.scanStart = kv.nextKey(rng)
		op.scanN = 1 + rng.Intn(kv.scanMax)
		kv.Sys.CPU.UserExec(th.HW, uint64(op.scanN)*YCSBScanPerRec, op.scanFn)
	case OpRMW:
		key := kv.nextKey(rng)
		kv.Store.ReadModifyWrite(th, key, op.take())
	}
}

// scan runs the scan after its per-record user work.
//
//hwdp:hotpath
func (op *kvOp) scan() { op.kv.Store.Scan(op.th, op.scanStart, op.scanN, op.scannedFn) }

// got completes a read (the Get callback).
//
//hwdp:hotpath
func (op *kvOp) got(_ uint64, _ mem.Content, err error) { op.take()(err) }

// scanned completes a scan (the Scan callback).
//
//hwdp:hotpath
func (op *kvOp) scanned(_ int, err error) { op.take()(err) }

// take hands over the op's completion, clearing the carrier's slot
// first: the completion starts the thread's next op on this carrier.
func (op *kvOp) take() func(error) {
	done := op.done
	op.done = nil
	return done
}
