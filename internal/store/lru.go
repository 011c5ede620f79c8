package store

import "container/list"

// lru is the byte-budgeted least-recently-used index both local tiers keep:
// the memory tier holds artifact values in it, the disk tier only the sizes
// of its entry files. Callers hold their own lock around every method.
type lru struct {
	max, bytes int64
	ll         list.List // front = most recently used
	items      map[Digest]*list.Element
	evictions  uint64
	// evicted, when set, is told of every entry evicted for the budget (the
	// disk tier removes the file).
	evicted func(key Digest)
}

type lruEntry struct {
	key   Digest
	value any
	size  int64
}

func newLRU(budget int64, evicted func(Digest)) *lru {
	return &lru{max: budget, items: make(map[Digest]*list.Element), evicted: evicted}
}

// get returns key's value and makes it the most recently used.
func (c *lru) get(key Digest) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).value, true
}

// peek returns key's value without touching the recency order.
func (c *lru) peek(key Digest) (any, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*lruEntry).value, true
}

// put makes key resident (or replaces it) as the most recently used entry
// and evicts from the tail until the budget holds again. The new entry is
// evicted only when it alone exceeds the whole budget.
func (c *lru) put(key Digest, v any, size int64) {
	size = max(size, 0)
	if el, ok := c.items[key]; ok {
		e := el.Value.(*lruEntry)
		c.bytes += size - e.size
		e.value, e.size = v, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry{key: key, value: v, size: size})
		c.bytes += size
	}
	c.evict()
}

// remove forgets key without counting an eviction.
func (c *lru) remove(key Digest) {
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
		c.bytes -= el.Value.(*lruEntry).size
	}
}

// setMax replaces the budget (<= 0 = unbounded) and evicts down to it.
func (c *lru) setMax(n int64) {
	c.max = n
	c.evict()
}

func (c *lru) evict() {
	for c.max > 0 && c.bytes > c.max && c.ll.Len() > 0 {
		e := c.ll.Back().Value.(*lruEntry)
		c.remove(e.key)
		c.evictions++
		if c.evicted != nil {
			c.evicted(e.key)
		}
	}
}

func (c *lru) len() int { return c.ll.Len() }
