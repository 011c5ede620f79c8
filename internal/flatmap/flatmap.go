// Package flatmap implements an open-addressing hash table from uint64
// keys to uint64 values, tuned for the simulator's hot paths: cache tag
// lookup and MSHR in-flight tracking. Go's general-purpose map dominated
// CPU profiles there (hashing, bucket probing, write barriers) and cannot
// be cleared without either reallocating or iterating; this table does one
// multiply per probe, stores slots in a flat array, and supports O(capacity)
// Clear for the simulator-pool reset path.
//
// The table is deliberately value-behaviour-free: it only answers presence
// and lookup questions, so swapping it in for a runtime map cannot change
// simulated timing.
package flatmap

// slot is one table entry, 16 bytes. It stores key+1 so that the zero
// slot reads as empty and Clear stays a memclr. That reserves ^uint64(0),
// the one key whose successor wraps to zero; the simulator's keys are
// cache-line addresses, which are line-aligned and so never all ones.
type slot struct {
	key1 uint64 // key+1; 0 marks an empty slot
	val  uint64
}

// Map is an open-addressing uint64→uint64 hash table with linear probing
// and backward-shift deletion (no tombstones). The zero value is not
// usable; construct with New. Not safe for concurrent use.
type Map struct {
	slots []slot
	n     int
	mask  uint64
}

const minCapacity = 16

// New returns an empty map sized to hold at least hint entries without
// growing.
func New(hint int) *Map {
	capacity := minCapacity
	for capacity*3 < hint*4 { // keep load factor under 3/4
		capacity <<= 1
	}
	return &Map{slots: make([]slot, capacity), mask: uint64(capacity - 1)}
}

// Len returns the number of entries.
func (m *Map) Len() int { return m.n }

// home returns the preferred slot index for key k (Fibonacci hashing; the
// high multiply bits are well mixed even for line addresses that share low
// zero bits).
func (m *Map) home(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> 32 & m.mask
}

// Get returns the value stored for k and whether it is present.
func (m *Map) Get(k uint64) (uint64, bool) {
	k1 := k + 1
	for i := m.home(k); ; i = (i + 1) & m.mask {
		s := &m.slots[i]
		if s.key1 == 0 {
			return 0, false
		}
		if s.key1 == k1 {
			return s.val, true
		}
	}
}

// Set inserts or updates the entry for k. It panics if k is ^uint64(0),
// the reserved key (see slot).
func (m *Map) Set(k, v uint64) {
	if k == ^uint64(0) {
		panic("flatmap: key 0xffffffffffffffff is reserved and cannot be stored")
	}
	if (m.n+1)*4 > len(m.slots)*3 {
		m.grow()
	}
	k1 := k + 1
	for i := m.home(k); ; i = (i + 1) & m.mask {
		s := &m.slots[i]
		if s.key1 == 0 {
			*s = slot{key1: k1, val: v}
			m.n++
			return
		}
		if s.key1 == k1 {
			s.val = v
			return
		}
	}
}

// Delete removes the entry for k, reporting whether it was present.
// Removal backward-shifts the probe chain so lookups never need tombstones.
func (m *Map) Delete(k uint64) bool {
	k1 := k + 1
	i := m.home(k)
	for {
		s := &m.slots[i]
		if s.key1 == 0 {
			return false
		}
		if s.key1 == k1 {
			break
		}
		i = (i + 1) & m.mask
	}
	m.unlink(i)
	return true
}

// unlink empties slot i and repairs the probe chain after it.
func (m *Map) unlink(i uint64) {
	m.n--
	j := i
	for {
		j = (j + 1) & m.mask
		if m.slots[j].key1 == 0 {
			break
		}
		h := m.home(m.slots[j].key1 - 1)
		// Move slots[j] into the hole at i only if its probe path passes
		// through i (cyclic interval test).
		var reachable bool
		if j > i {
			reachable = h <= i || h > j
		} else {
			reachable = h <= i && h > j
		}
		if reachable {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = slot{}
}

// DeleteIf removes entries for which pred returns true. The predicate must
// be deterministic: chain repair can shift an entry into the slot being
// examined, where it is tested again. A shift across the array wrap can
// also move an entry into an already-visited slot, where it survives the
// pass — DeleteIf is for opportunistic cleanup (in-flight sweeps whose
// expired entries read as absent anyway); use Delete when an entry must go.
func (m *Map) DeleteIf(pred func(k, v uint64) bool) {
	for i := uint64(0); i < uint64(len(m.slots)); {
		s := &m.slots[i]
		if s.key1 != 0 && pred(s.key1-1, s.val) {
			m.unlink(i)
			continue // unlink may have shifted a new entry into slot i
		}
		i++
	}
}

// Range calls f for every entry in unspecified order until f returns false.
// f must not mutate the map.
func (m *Map) Range(f func(k, v uint64) bool) {
	for i := range m.slots {
		if s := &m.slots[i]; s.key1 != 0 && !f(s.key1-1, s.val) {
			return
		}
	}
}

// Clear removes every entry, keeping the allocated capacity.
func (m *Map) Clear() {
	clear(m.slots)
	m.n = 0
}

func (m *Map) grow() {
	old := m.slots
	m.slots = make([]slot, len(old)*2)
	m.mask = uint64(len(m.slots) - 1)
	m.n = 0
	for i := range old {
		if old[i].key1 != 0 {
			m.Set(old[i].key1-1, old[i].val)
		}
	}
}
