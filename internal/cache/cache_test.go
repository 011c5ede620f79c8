package cache

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 128},
		{SizeBytes: 1024, LineBytes: 0},
		{SizeBytes: 1000, LineBytes: 128},           // size not line multiple
		{SizeBytes: 1024, LineBytes: 128, Assoc: 3}, // 8 lines not divisible by 3
		{SizeBytes: 96 * 512, LineBytes: 96},        // LineAddr masks: line must be a power of two
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestLineAddr(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 1024, LineBytes: 128, Assoc: 2})
	if got := c.LineAddr(0x1234); got != 0x1200 {
		t.Errorf("LineAddr(0x1234) = %#x", got)
	}
	if got := c.LineAddr(0x1280); got != 0x1280 {
		t.Errorf("LineAddr(0x1280) = %#x", got)
	}
}

// TestLineAddrNonPowerOfTwo pins why New rejects a 96-byte line: LineAddr
// masks with LineBytes-1, which for 96 maps address 96 to line 32 and
// address 64 to line 0, so distinct lines alias and lines straddle.
func TestLineAddrNonPowerOfTwo(t *testing.T) {
	if _, err := New(Config{SizeBytes: 96 * 512, LineBytes: 96}); err == nil ||
		!strings.Contains(err.Error(), "power of two") {
		t.Fatalf("96-byte line: err = %v, want a power-of-two error", err)
	}
	for _, line := range []int{1, 2, 64, 128, 256} {
		if _, err := New(Config{SizeBytes: line * 8, LineBytes: line}); err != nil {
			t.Errorf("%d-byte line rejected: %v", line, err)
		}
	}
}

func TestMissThenInstallThenHit(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 1024, LineBytes: 128, Assoc: 2})
	if _, hit := c.Load(0x1000); hit {
		t.Fatal("cold load hit")
	}
	c.Install(0x1000, 77)
	if fill, hit := c.Load(0x1040); !hit || fill != 77 { // same line, different offset
		t.Fatalf("load after install = (%d, %v), want (77, true)", fill, hit)
	}
	st := c.Stats()
	if st.LoadAccesses != 2 || st.LoadMisses != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way set: lines mapping to the same set evict in LRU order.
	c := mustNew(t, Config{SizeBytes: 4 * 128, LineBytes: 128, Assoc: 2})
	// With 4 lines and 2-way assoc there are 2 sets; stride of
	// 2*128 keeps addresses in set 0.
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Install(a, 1)
	c.Install(b, 2)
	c.Load(a) // a becomes MRU
	if v, ok := c.Install(d, 3); !ok || v != (Line{Addr: b, Fill: 2}) {
		t.Errorf("Install(d) evicted (%+v, %v), want b with its fill", v, ok)
	}
	if c.Contains(b) {
		t.Error("LRU victim b survived")
	}
	if !c.Contains(a) || !c.Contains(d) {
		t.Error("expected a and d resident")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d", c.Stats().Evictions)
	}
}

func TestFullyAssociativeUsesWholeCapacity(t *testing.T) {
	// Fully associative: any 8 distinct lines fit regardless of address.
	c := mustNew(t, Config{SizeBytes: 8 * 128, LineBytes: 128, Assoc: 0})
	for i := 0; i < 8; i++ {
		if _, ok := c.Install(uint64(i)*128*977, 0); ok { // scattered addresses
			t.Fatalf("install %d evicted from a non-full cache", i)
		}
	}
	for i := 0; i < 8; i++ {
		if !c.Contains(uint64(i) * 128 * 977) {
			t.Fatalf("line %d evicted from non-full fully-assoc cache", i)
		}
	}
	c.Install(9*128*977, 0)
	if c.Stats().Evictions != 1 {
		t.Errorf("expected exactly one eviction, got %d", c.Stats().Evictions)
	}
}

func TestStoreNoAllocate(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 1024, LineBytes: 128, Assoc: 2})
	if c.Store(0x2000) {
		t.Error("store to absent line reported hit")
	}
	if c.Contains(0x2000) {
		t.Error("store allocated a line")
	}
	c.Install(0x2000, 0)
	if !c.Store(0x2000) {
		t.Error("store to resident line missed")
	}
	st := c.Stats()
	if st.StoreAccesses != 2 || st.StoreHits != 1 {
		t.Errorf("store stats %+v", st)
	}
	// Stores must not affect load miss accounting.
	if st.LoadAccesses != 0 {
		t.Errorf("stores counted as loads: %+v", st)
	}
}

func TestInstallIdempotent(t *testing.T) {
	c := mustNew(t, Config{SizeBytes: 1024, LineBytes: 128, Assoc: 2})
	c.Install(0x100, 5)
	if _, ok := c.Install(0x100, 9); ok || c.Stats().Evictions != 0 {
		t.Error("double install evicted")
	}
	if fill, hit := c.Load(0x100); !hit || fill != 9 {
		t.Errorf("after double install Load = (%d, %v), want the second fill", fill, hit)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{LoadAccesses: 1, LoadMisses: 2, StoreAccesses: 3, StoreHits: 4, Evictions: 5}
	b := Stats{LoadAccesses: 10, LoadMisses: 20, StoreAccesses: 30, StoreHits: 40, Evictions: 50}
	a.Add(b)
	want := Stats{LoadAccesses: 11, LoadMisses: 22, StoreAccesses: 33, StoreHits: 44, Evictions: 55}
	if a != want {
		t.Errorf("Add = %+v", a)
	}
}

// Property: the resident-set size never exceeds capacity, and a load
// immediately after install always hits.
func TestCapacityProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c, err := New(Config{SizeBytes: 16 * 64, LineBytes: 64, Assoc: 4})
		if err != nil {
			return false
		}
		resident := 0
		for _, a := range addrs {
			addr := uint64(a)
			if _, hit := c.Load(addr); !hit {
				c.Install(addr, 0)
				if _, hit := c.Load(addr); !hit {
					return false
				}
			}
			resident = 0
			for _, s := range c.sets {
				resident += int(s.count)
				if int(s.count) > c.assoc {
					return false
				}
			}
		}
		return resident <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: LRU stack property — a cache of capacity 2N contains everything
// a same-shape cache of capacity N contains (inclusion for fully
// associative LRU).
func TestLRUInclusionProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		small, err := New(Config{SizeBytes: 8 * 64, LineBytes: 64, Assoc: 0})
		if err != nil {
			return false
		}
		big, err := New(Config{SizeBytes: 16 * 64, LineBytes: 64, Assoc: 0})
		if err != nil {
			return false
		}
		for _, a := range addrs {
			addr := uint64(a)
			if _, hit := small.Load(addr); !hit {
				small.Install(addr, 0)
			}
			if _, hit := big.Load(addr); !hit {
				big.Install(addr, 0)
			}
			// Inclusion check.
			included := true
			small.table.Range(func(line, _ uint64) bool {
				included = big.Contains(line)
				return included
			})
			if !included {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Reset must restore the exact post-New state: an access sequence replayed
// after Reset produces identical stats and residency to a fresh cache.
func TestResetRestoresFreshState(t *testing.T) {
	cfg := Config{SizeBytes: 8 * 64, LineBytes: 64, Assoc: 2}
	replay := func(c *Cache) Stats {
		for i := 0; i < 200; i++ {
			addr := uint64(i%23) * 64 * 3
			if _, hit := c.Load(addr); !hit {
				c.Install(addr, uint64(i))
			}
			if i%7 == 0 {
				c.Store(addr + 64)
			}
		}
		return c.Stats()
	}
	fresh := mustNew(t, cfg)
	want := replay(fresh)

	c := mustNew(t, cfg)
	replay(c)
	c.Reset()
	if c.Stats() != (Stats{}) {
		t.Fatalf("stats after Reset = %+v", c.Stats())
	}
	if c.Contains(0) {
		t.Fatal("line survived Reset")
	}
	if got := replay(c); got != want {
		t.Errorf("replay after Reset = %+v, want %+v", got, want)
	}
}
