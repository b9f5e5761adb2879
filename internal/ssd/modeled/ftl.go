package modeled

import "hwdp/internal/sim"

// mapCache is the bounded FTL mapping cache (DFTL-style). The full
// page-level map is assumed to live on flash; this cache models which
// translation entries are resident in device DRAM. Timing-only: the
// authoritative l2p array is always exact, the cache decides whether a
// lookup pays the translation-page fetch penalty.
//
// It is an intrusive doubly-linked LRU over a preallocated node arena
// with an open-addressing index, so hit/miss/evict are O(1) with no Go
// map iteration anywhere (fixed-seed determinism).
type mapCache struct {
	cap   int
	nodes []mapNode
	// index is an open-addressed hash table of node ids + 1 (0 = empty).
	index []int32
	mask  uint64
	head  int32 // most recent
	tail  int32 // least recent
	used  int
	free  int32 // free-list head
}

// mapNode is one resident translation entry.
type mapNode struct {
	lba        int64
	prev, next int32
	dirty      bool
}

// init sizes the cache for capacity entries.
func (c *mapCache) init(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	c.cap = capacity
	c.nodes = make([]mapNode, capacity)
	slots := 2
	for slots < capacity*2 {
		slots *= 2
	}
	c.index = make([]int32, slots)
	c.mask = uint64(slots - 1)
	c.head, c.tail = -1, -1
	c.free = 0
	for i := range c.nodes {
		c.nodes[i].next = int32(i + 1)
	}
	c.nodes[capacity-1].next = -1
}

// hash mixes an LBA into a table slot (splitmix64 finalizer).
func (c *mapCache) hash(lba int64) uint64 {
	z := uint64(lba) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) & c.mask
}

// find returns the node id caching lba, or -1.
func (c *mapCache) find(lba int64) int32 {
	for slot := c.hash(lba); ; slot = (slot + 1) & c.mask {
		id := c.index[slot]
		if id == 0 {
			return -1
		}
		if c.nodes[id-1].lba == lba {
			return id - 1
		}
	}
}

// indexDelete removes lba from the hash table (backward-shift deletion,
// keeping probe chains intact without tombstones).
func (c *mapCache) indexDelete(lba int64) {
	slot := c.hash(lba)
	for {
		id := c.index[slot]
		if id == 0 {
			return
		}
		if c.nodes[id-1].lba == lba {
			break
		}
		slot = (slot + 1) & c.mask
	}
	// Backward-shift: rehome any entry whose probe chain passes through
	// the vacated slot.
	hole := slot
	for i := (slot + 1) & c.mask; ; i = (i + 1) & c.mask {
		id := c.index[i]
		if id == 0 {
			break
		}
		home := c.hash(c.nodes[id-1].lba)
		// id may move into the hole iff the hole lies on its probe path
		// (cyclic interval [home, i]).
		if (i >= home && (hole >= home && hole <= i)) ||
			(i < home && (hole >= home || hole <= i)) {
			c.index[hole] = id
			hole = i
		}
	}
	c.index[hole] = 0
}

// indexInsert adds node id under lba.
func (c *mapCache) indexInsert(lba int64, id int32) {
	for slot := c.hash(lba); ; slot = (slot + 1) & c.mask {
		if c.index[slot] == 0 {
			c.index[slot] = id + 1
			return
		}
	}
}

// unlink detaches a node from the LRU list.
func (c *mapCache) unlink(id int32) {
	n := &c.nodes[id]
	if n.prev >= 0 {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next >= 0 {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

// pushFront makes a node most-recently-used.
func (c *mapCache) pushFront(id int32) {
	n := &c.nodes[id]
	n.prev, n.next = -1, c.head
	if c.head >= 0 {
		c.nodes[c.head].prev = id
	}
	c.head = id
	if c.tail < 0 {
		c.tail = id
	}
}

// access touches lba, returning (hit, evictedDirty): whether the entry
// was resident and whether making room evicted a dirty entry. dirty
// marks the entry modified (a write updates the translation).
func (c *mapCache) access(lba int64, dirty bool) (bool, bool) {
	if id := c.find(lba); id >= 0 {
		c.unlink(id)
		c.pushFront(id)
		if dirty {
			c.nodes[id].dirty = true
		}
		return true, false
	}
	evictedDirty := false
	var id int32
	if c.used < c.cap {
		id = c.free
		c.free = c.nodes[id].next
		c.used++
	} else {
		id = c.tail
		c.unlink(id)
		evictedDirty = c.nodes[id].dirty
		c.indexDelete(c.nodes[id].lba)
	}
	c.nodes[id] = mapNode{lba: lba, dirty: dirty, prev: -1, next: -1}
	c.indexInsert(lba, id)
	c.pushFront(id)
	return false, evictedDirty
}

// cacheAccess charges the mapping-cache cost of touching lba and updates
// the hit/miss counters. Misses pay the translation fetch; evicting a
// dirty victim additionally pays the translation writeback.
func (m *Model) cacheAccess(lba int64, dirty bool) sim.Time {
	hit, evictedDirty := m.cache.access(lba, dirty)
	if hit {
		m.st.MapHits++
		return 0
	}
	m.st.MapMisses++
	pen := m.cfg.MapMissPenalty
	if evictedDirty {
		m.st.MapEvictsDirty++
		pen += m.cfg.MapEvictPenalty
	}
	return pen
}
