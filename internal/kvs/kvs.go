// Package kvs is a minimal NoSQL record store standing in for RocksDB in
// the evaluation (DBBench / YCSB workloads). It keeps fixed-size 4 KiB
// records in a single table file accessed exclusively through the simulated
// memory-mapped I/O path — exactly the deployment the paper targets with
// fast file mmap(): every cold Get is a demand-paging miss.
//
// A record is a pure function of its (key, version) pair: a header echoing
// the key and version, a payload generated from the pair, and a checksum.
// The table file's initializer generates it from the pair packed into one
// page word, so an unwritten block already reads as (key, version 0), and
// a Put stores the descriptor mem.Generated(table generator, pair) through
// the mmap path (Kernel.StorePage) without building any bytes. Writeback
// and refaults carry that descriptor through the whole MMU → SMU/fault
// handler → NVMe → DMA pipeline.
//
// Every read still proves end-to-end integrity. Get loads the page's
// descriptor (Kernel.LoadPage) and accepts it when it was made by this
// table's generator (mem.Content.GeneratedBy, a pointer comparison) and
// its page word echoes the key; the version then comes from the word.
// Anything else — a frame whose bytes were materialized, a zero page (a
// block trimmed under a read), a byte snapshot, another file's generator,
// a wrong key — falls back to the bytes: the contents are materialized and
// validateRecord checks the key echo and the checksum.
package kvs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"hwdp/internal/fs"
	"hwdp/internal/kernel"
	"hwdp/internal/mem"
	"hwdp/internal/mmu"
	"hwdp/internal/pagetable"
)

// RecordSize is the fixed record size (the paper's workloads use 4 KB
// records).
const RecordSize = fs.PageBytes

const headerSize = 8 + 8 + 8 // key, version, checksum

// PayloadSize is the usable value bytes per record.
const PayloadSize = RecordSize - headerSize

// ErrCorrupt reports a record that failed validation after a read.
var ErrCorrupt = errors.New("kvs: corrupt record")

// ErrBadKey reports an out-of-range key.
var ErrBadKey = errors.New("kvs: key out of range")

// ErrBadVersion reports a version too large for a record descriptor.
var ErrBadVersion = errors.New("kvs: version out of range")

// A record's descriptor page word packs its key into the low keyBits bits
// and its version above them, keeping the word a non-negative int.
const (
	keyBits    = 32
	keyMask    = 1<<keyBits - 1
	maxKeys    = 1 << keyBits
	maxVersion = math.MaxInt >> keyBits
)

// pack is the page word of the record (key, version).
func pack(key, version uint64) int { return int(version<<keyBits | key) }

// generateRecord is every table's initializer: it encodes the record
// packed into word, so file page p (word p) is key p at version 0.
func generateRecord(word int, buf []byte) {
	encodeRecord(buf, uint64(word)&keyMask, uint64(word)>>keyBits)
}

// checksum is FNV-1a folded a little-endian word at a time, with the tail
// of each slice folded byte by byte. Each step is a bijection of the
// running hash, so changing any one word (in particular any one byte) of
// the input always changes the sum.
func checksum(bs ...[]byte) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, b := range bs {
		for ; len(b) >= 8; b = b[8:] {
			h ^= binary.LittleEndian.Uint64(b)
			h *= prime
		}
		for _, c := range b {
			h ^= uint64(c)
			h *= prime
		}
	}
	return h
}

// encodeRecord writes a record for key with the given version into buf.
// The payload is a deterministic function of (key, version), so any reader
// can re-derive and verify it.
func encodeRecord(buf []byte, key, version uint64) {
	payload := buf[headerSize:]
	s := key*0x9e3779b97f4a7c15 + version*1099511628211 + 1
	for i := 0; i < len(payload); i += 8 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		binary.LittleEndian.PutUint64(payload[i:], s)
	}
	binary.LittleEndian.PutUint64(buf[0:], key)
	binary.LittleEndian.PutUint64(buf[8:], version)
	binary.LittleEndian.PutUint64(buf[16:], checksum(buf[0:16], payload))
}

// validateRecord checks key echo and checksum, returning the version.
func validateRecord(buf []byte, key uint64) (version uint64, err error) {
	gotKey := binary.LittleEndian.Uint64(buf[0:])
	version = binary.LittleEndian.Uint64(buf[8:])
	sum := binary.LittleEndian.Uint64(buf[16:])
	if gotKey != key {
		return 0, fmt.Errorf("%w: key %d read %d", ErrCorrupt, key, gotKey)
	}
	if want := checksum(buf[0:16], buf[headerSize:]); sum != want {
		return 0, fmt.Errorf("%w: checksum mismatch for key %d", ErrCorrupt, key)
	}
	return version, nil
}

// Store is one opened table.
type Store struct {
	k    *kernel.Kernel
	file *fs.File
	gen  *mem.Generator // the table file's initializer: record descriptors
	base pagetable.VAddr
	keys uint64

	// Write-ahead log: like RocksDB, every update appends a log record
	// before (logically) touching the table. The log is a circular file
	// written with buffered (asynchronous) block writes; its device-write
	// traffic is what degrades read latency in mixed workloads.
	wal     *fs.File
	walSID  uint8
	walDev  uint8
	walHead int
	walLen  int

	ops map[*kernel.Thread]*storeOp
}

// storeOp carries one thread's in-flight store operations through their
// phases. A thread runs one op at a time (RMW and Scan chain their Gets
// and Put one after another), so each thread reuses one carrier whose
// phases are bound once.
type storeOp struct {
	s  *Store
	th *kernel.Thread

	getKey  uint64
	getDone func(version uint64, rec mem.Content, err error)

	putKey, putVersion uint64
	putDone            func(err error)

	rmwDone func(err error)

	scanKey  uint64
	scanN    int
	scanned  int
	scanDone func(scanned int, err error)

	loadedFn            func(r mmu.Result, c mem.Content, data []byte)
	walDoneFn           func()
	storedFn            func(mmu.Result)
	rmwGotFn, scanGotFn func(version uint64, rec mem.Content, err error)
}

// Create builds the table file (keys records, fewer than 2^32) on the file
// system and maps it into the process with the requested mmap flags — the
// "database files of a NoSQL application are the target of the fast file
// mmap()".
func Create(k *kernel.Kernel, fsys *fs.FS, p *kernel.Process, name string,
	keys uint64, sid, devID uint8, flags kernel.MmapFlags) (*Store, error) {
	if keys >= maxKeys {
		return nil, fmt.Errorf("kvs: %d keys do not fit a record descriptor (max %d)", keys, maxKeys-1)
	}
	f, err := fsys.Create(name, int(keys), generateRecord)
	if err != nil {
		return nil, err
	}
	base, err := k.Mmap(p, sid, devID, f, pagetable.Prot{Write: true, User: true}, flags)
	if err != nil {
		return nil, err
	}
	walLen := int(keys/16) + 64
	wal, err := fsys.Create(name+".wal", walLen, nil)
	if err != nil {
		return nil, err
	}
	return &Store{k: k, file: f, gen: f.Generator(), base: base, keys: keys,
		wal: wal, walSID: sid, walDev: devID, walLen: walLen,
		ops: make(map[*kernel.Thread]*storeOp)}, nil
}

// Keys returns the number of records.
func (s *Store) Keys() uint64 { return s.keys }

// File returns the backing file.
func (s *Store) File() *fs.File { return s.file }

// Base returns the mapped base address.
func (s *Store) Base() pagetable.VAddr { return s.base }

func (s *Store) addr(key uint64) pagetable.VAddr {
	return s.base + pagetable.VAddr(key)*RecordSize
}

// validate checks the record contents c read for key and returns its
// version: by descriptor when this table's generator made c for key, by
// bytes otherwise.
//
//hwdp:hotpath
func (s *Store) validate(c mem.Content, key uint64) (version uint64, err error) {
	if word, ok := c.GeneratedBy(s.gen); ok && uint64(word)&keyMask == key {
		return uint64(word) >> keyBits, nil
	}
	return validateBytes(c, key)
}

// validateBytes materializes c and validates the bytes.
//
//hwdp:coldpath only contents that fail the descriptor check get here: materialized frames, zeros, snapshots, other files' pages, wrong keys
func validateBytes(c mem.Content, key uint64) (version uint64, err error) {
	buf := new([RecordSize]byte)
	c.Materialize(buf[:])
	return validateRecord(buf[:], key)
}

// op returns th's carrier.
//
//hwdp:hotpath
func (s *Store) op(th *kernel.Thread) *storeOp {
	if op := s.ops[th]; op != nil {
		return op
	}
	return s.newOp(th)
}

// newOp builds th's carrier and binds its phases.
//
//hwdp:coldpath runs once per thread, on its first store op
func (s *Store) newOp(th *kernel.Thread) *storeOp {
	op := &storeOp{s: s, th: th}
	op.loadedFn, op.walDoneFn, op.storedFn = op.loaded, op.walDone, op.stored
	op.rmwGotFn, op.scanGotFn = op.rmwGot, op.scanGot
	s.ops[th] = op
	return op
}

// Get reads and validates the record for key. done receives the record's
// version and its contents as a descriptor, or a validation error.
//
//hwdp:hotpath
func (s *Store) Get(th *kernel.Thread, key uint64, done func(version uint64, rec mem.Content, err error)) {
	if key >= s.keys {
		done(0, mem.Content{}, errBadKey(key))
		return
	}
	op := s.op(th)
	if op.getDone != nil {
		panic(fmt.Sprintf("kvs: thread %d started a Get with one in flight", th.ID))
	}
	op.getKey, op.getDone = key, done
	s.k.LoadPage(th, s.addr(key), op.loadedFn)
}

// loaded validates the record a Get loaded (the LoadPage callback) and
// completes the Get.
//
//hwdp:hotpath
func (op *storeOp) loaded(r mmu.Result, c mem.Content, data []byte) {
	key, done := op.getKey, op.getDone
	op.getDone = nil
	if r.Outcome == mmu.OutcomeBadAddr {
		done(0, mem.Content{}, errUnmapped(key))
		return
	}
	if data != nil {
		// Something materialized the frame: validate a copy of its bytes.
		c = snapshot(data)
	}
	v, err := op.s.validate(c, key)
	done(v, c, err)
}

// snapshot copies a materialized record frame's bytes.
//
//hwdp:coldpath only frames whose bytes something materialized get here
func snapshot(data []byte) mem.Content {
	b := new([RecordSize]byte)
	copy(b[:], data)
	return mem.Snapshot(b)
}

// errBadKey reports an out-of-range key.
//
//hwdp:coldpath error path: workloads draw keys below Keys
func errBadKey(key uint64) error { return fmt.Errorf("%w: %d", ErrBadKey, key) }

// errUnmapped reports a record whose page is not mapped.
//
//hwdp:coldpath error path: the table stays mapped while the store is open
func errUnmapped(key uint64) error { return fmt.Errorf("kvs: unmapped record %d", key) }

// Put writes a full record for key at the given version: a WAL append
// (buffered device write) followed by the in-place table update through
// the mmap path, which stores the record's descriptor.
//
//hwdp:hotpath
func (s *Store) Put(th *kernel.Thread, key, version uint64, done func(err error)) {
	if key >= s.keys {
		done(errBadKey(key))
		return
	}
	if version > maxVersion {
		done(errBadVersion(version))
		return
	}
	op := s.op(th)
	if op.putDone != nil {
		panic(fmt.Sprintf("kvs: thread %d started a Put with one in flight", th.ID))
	}
	op.putKey, op.putVersion, op.putDone = key, version, done
	page := s.walHead
	s.walHead = (s.walHead + 1) % s.walLen
	s.k.WriteRaw(th, s.walSID, s.walDev, s.wal, page, op.walDoneFn)
}

// errBadVersion reports a version too large for a record descriptor.
//
//hwdp:coldpath error path: versions stay far below 2^31 in any run
func errBadVersion(version uint64) error {
	return fmt.Errorf("%w: %d (max %d)", ErrBadVersion, version, maxVersion)
}

// walDone stores the Put's record once its WAL append is submitted (the
// WriteRaw callback).
//
//hwdp:hotpath
func (op *storeOp) walDone() {
	s := op.s
	s.k.StorePage(op.th, s.addr(op.putKey), mem.Generated(s.gen, pack(op.putKey, op.putVersion)), op.storedFn)
}

// stored completes the Put (the StorePage callback).
//
//hwdp:hotpath
func (op *storeOp) stored(r mmu.Result) {
	done := op.putDone
	op.putDone = nil
	if r.Outcome == mmu.OutcomeBadAddr {
		done(errUnmapped(op.putKey))
		return
	}
	done(nil)
}

// ReadModifyWrite performs YCSB-F's read-modify-write: Get, bump the
// version, Put.
//
//hwdp:hotpath
func (s *Store) ReadModifyWrite(th *kernel.Thread, key uint64, done func(err error)) {
	op := s.op(th)
	if op.rmwDone != nil {
		panic(fmt.Sprintf("kvs: thread %d started a ReadModifyWrite with one in flight", th.ID))
	}
	op.rmwDone = done
	s.Get(th, key, op.rmwGotFn)
}

// rmwGot puts the record an RMW read back at the next version (the Get
// callback).
//
//hwdp:hotpath
func (op *storeOp) rmwGot(v uint64, _ mem.Content, err error) {
	done := op.rmwDone
	op.rmwDone = nil
	if err != nil {
		done(err)
		return
	}
	op.s.Put(op.th, op.getKey, v+1, done)
}

// Scan reads n consecutive records starting at key (YCSB-E), validating
// each. done receives the number of records scanned and the first error.
//
//hwdp:hotpath
func (s *Store) Scan(th *kernel.Thread, key uint64, n int, done func(scanned int, err error)) {
	op := s.op(th)
	if op.scanDone != nil {
		panic(fmt.Sprintf("kvs: thread %d started a Scan with one in flight", th.ID))
	}
	op.scanN, op.scanned, op.scanDone = n, 0, done
	op.scanStep(key)
}

// scanStep reads the scan's record at k, or completes the scan.
//
//hwdp:hotpath
func (op *storeOp) scanStep(k uint64) {
	if op.scanned >= op.scanN || k >= op.s.keys {
		op.scanEnd(nil)
		return
	}
	op.scanKey = k
	op.s.Get(op.th, k, op.scanGotFn)
}

// scanGot counts one scanned record and steps on (the Get callback).
//
//hwdp:hotpath
func (op *storeOp) scanGot(_ uint64, _ mem.Content, err error) {
	if err != nil {
		op.scanEnd(err)
		return
	}
	op.scanned++
	op.scanStep(op.scanKey + 1)
}

// scanEnd completes the scan.
func (op *storeOp) scanEnd(err error) {
	done, scanned := op.scanDone, op.scanned
	op.scanDone = nil
	done(scanned, err)
}
