// Package cache implements the set-associative tag arrays used for the
// simulated L1D caches (fully associative, per Table II) and L2 slices
// (16-way). The cache is a pure state machine over line addresses — hit
// latencies, MSHR timing and fill scheduling are orchestrated by the timing
// model in internal/gpu, which keeps this package trivially testable. Each
// resident line carries the cycle its fill completes, an opaque number the
// timing model sets at Install and reads back from Load, so one probe
// answers both "is the line here" and "has its data arrived".
//
// Internally the tag array is a preallocated node pool with int32 LRU links
// plus one flatmap over all sets: no per-fill allocation, no pointer
// chasing through heap-scattered nodes, and Reset restores the empty state
// without reallocating — all invisible to the simulated timing, which only
// observes hit/miss/eviction outcomes and those are layout-independent.
package cache

import (
	"fmt"

	"zatel/internal/flatmap"
)

// Config sizes a cache instance.
type Config struct {
	SizeBytes int
	LineBytes int
	// Assoc is the set associativity; 0 means fully associative.
	Assoc int
}

// Stats counts accesses. Load misses drive the Table I miss-rate metrics;
// stores are write-through/no-allocate and tracked separately.
type Stats struct {
	LoadAccesses  uint64
	LoadMisses    uint64
	StoreAccesses uint64
	StoreHits     uint64
	Evictions     uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.LoadAccesses += other.LoadAccesses
	s.LoadMisses += other.LoadMisses
	s.StoreAccesses += other.StoreAccesses
	s.StoreHits += other.StoreHits
	s.Evictions += other.Evictions
}

// nilNode terminates LRU chains and the freelist.
const nilNode = int32(-1)

// Line is a resident line: its address and the fill cycle it was
// installed with.
type Line struct {
	Addr uint64
	Fill uint64
}

// node is one resident line; prev/next are indices into Cache.nodes, which
// doubles as the freelist chain (via next) when the node is unused.
type node struct {
	Line
	prev, next int32
	set        int32
}

// lruSet is the per-set replacement state: head is the most recently used
// node, tail the eviction victim.
type lruSet struct {
	head, tail int32
	count      int32
}

// Cache is a single tag array.
type Cache struct {
	cfg     Config
	numSets int
	assoc   int
	stats   Stats

	table *flatmap.Map // line address -> node index
	nodes []node       // one per cache line, preallocated
	free  int32        // freelist head, chained through node.next
	sets  []lruSet
}

// Validate checks that cfg describes a whole number of lines of a
// power-of-two size, split into whole sets.
func (cfg Config) Validate() error {
	if cfg.LineBytes <= 0 || cfg.SizeBytes <= 0 {
		return fmt.Errorf("cache: non-positive size or line (%d, %d)", cfg.SizeBytes, cfg.LineBytes)
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		// Line addresses are taken by masking with LineBytes-1.
		return fmt.Errorf("cache: line %d not a power of two", cfg.LineBytes)
	}
	if cfg.SizeBytes%cfg.LineBytes != 0 {
		return fmt.Errorf("cache: size %d not a multiple of line %d", cfg.SizeBytes, cfg.LineBytes)
	}
	if cfg.Assoc < 0 {
		return fmt.Errorf("cache: negative associativity %d", cfg.Assoc)
	}
	if numLines := cfg.SizeBytes / cfg.LineBytes; cfg.Assoc > 0 && numLines%cfg.Assoc != 0 {
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", numLines, cfg.Assoc)
	}
	return nil
}

// New validates cfg and returns an empty cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numLines := cfg.SizeBytes / cfg.LineBytes
	assoc := cfg.Assoc
	if assoc == 0 {
		assoc = numLines // fully associative
	}
	c := &Cache{
		cfg:     cfg,
		numSets: numLines / assoc,
		assoc:   assoc,
		table:   flatmap.New(numLines),
		nodes:   make([]node, numLines),
		sets:    make([]lruSet, numLines/assoc),
	}
	c.Reset()
	return c, nil
}

// Reset restores the empty post-New state — no resident lines, zero
// statistics — without releasing any allocation. The simulator pool uses it
// to reuse tag arrays across runs.
func (c *Cache) Reset() {
	c.stats = Stats{}
	c.table.Clear()
	for i := range c.sets {
		c.sets[i] = lruSet{head: nilNode, tail: nilNode}
	}
	// Rebuild the freelist over all nodes.
	for i := range c.nodes {
		c.nodes[i].next = int32(i) + 1
	}
	c.nodes[len(c.nodes)-1].next = nilNode
	c.free = 0
}

// LineAddr truncates addr to its line address.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ uint64(c.cfg.LineBytes-1)
}

func (c *Cache) setOf(line uint64) int32 {
	return int32((line / uint64(c.cfg.LineBytes)) % uint64(c.numSets))
}

// Load probes the cache for the line containing addr, updating LRU order
// and statistics. It reports whether the line was present and, if so, the
// fill cycle it was installed with; on a miss the caller is responsible for
// fetching and later calling Install.
func (c *Cache) Load(addr uint64) (fill uint64, hit bool) {
	c.stats.LoadAccesses++
	if ni, ok := c.table.Get(c.LineAddr(addr)); ok {
		c.touch(int32(ni))
		return c.nodes[ni].Fill, true
	}
	c.stats.LoadMisses++
	return 0, false
}

// Store probes for a write-through store. Hits refresh LRU order; misses do
// not allocate. It reports whether the line was present.
func (c *Cache) Store(addr uint64) bool {
	line := c.LineAddr(addr)
	c.stats.StoreAccesses++
	if ni, ok := c.table.Get(line); ok {
		c.stats.StoreHits++
		c.touch(int32(ni))
		return true
	}
	return false
}

// Contains probes without perturbing LRU order or statistics.
func (c *Cache) Contains(addr uint64) bool {
	_, ok := c.table.Get(c.LineAddr(addr))
	return ok
}

// Install places the line containing addr into its set as MRU with the
// given fill cycle. If the set is full it evicts the LRU victim and returns
// it. Installing a line already present refreshes it and replaces its fill.
func (c *Cache) Install(addr, fill uint64) (victim Line, evicted bool) {
	line := c.LineAddr(addr)
	if ni, ok := c.table.Get(line); ok {
		c.nodes[ni].Fill = fill
		c.touch(int32(ni))
		return Line{}, false
	}
	si := c.setOf(line)
	s := &c.sets[si]
	ni := c.free
	if int(s.count) >= c.assoc {
		// Recycle the victim node directly.
		ni = s.tail
		c.unlink(ni)
		victim, evicted = c.nodes[ni].Line, true
		c.table.Delete(victim.Addr)
		c.stats.Evictions++
	} else {
		c.free = c.nodes[ni].next
	}
	c.nodes[ni] = node{Line: Line{Addr: line, Fill: fill}, set: si}
	c.pushFront(ni)
	c.table.Set(line, uint64(ni))
	return victim, evicted
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) touch(ni int32) {
	if c.sets[c.nodes[ni].set].head == ni {
		return
	}
	c.unlink(ni)
	c.pushFront(ni)
}

func (c *Cache) pushFront(ni int32) {
	n := &c.nodes[ni]
	s := &c.sets[n.set]
	n.prev = nilNode
	n.next = s.head
	if s.head != nilNode {
		c.nodes[s.head].prev = ni
	}
	s.head = ni
	if s.tail == nilNode {
		s.tail = ni
	}
	s.count++
}

func (c *Cache) unlink(ni int32) {
	n := &c.nodes[ni]
	s := &c.sets[n.set]
	if n.prev != nilNode {
		c.nodes[n.prev].next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nilNode {
		c.nodes[n.next].prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nilNode, nilNode
	s.count--
}
