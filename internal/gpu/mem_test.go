package gpu

import (
	"testing"

	"zatel/internal/config"
	"zatel/internal/rt"
)

// newTestSim builds a simulator over one empty thread, for tests that drive
// the memory walk directly instead of through traces.
func newTestSim(t *testing.T, cfg config.Config) *Sim {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	sim, err := newSim(cfg, rt.TraceSlice(make([]rt.ThreadTrace, 1)))
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestL1MergesFillEvictedInFlight drives a two-line L1 through the one case
// the tag array cannot answer alone: a line evicted while its fill is still
// outstanding. A miss on it before the fill completes must merge into that
// fill (counted as a miss, no second L2 request); once the fill has
// completed, the next miss must fetch again.
func TestL1MergesFillEvictedInFlight(t *testing.T) {
	cfg := testConfig()
	cfg.L1DBytes = 2 * cfg.LineBytes
	cfg.L1DAssoc = 0
	sim := newTestSim(t, cfg)
	s := sim.sms[0]
	// Odd lines share a partition of the two, so their fills complete in
	// issue order.
	line := func(i uint64) uint64 { return (2*i + 1) * uint64(cfg.LineBytes) }
	check := func(step string, l1Misses, l2Loads uint64) {
		t.Helper()
		var l2 uint64
		for _, p := range sim.mem.partitions {
			l2 += p.l2.Stats().LoadAccesses
		}
		if got := s.l1.Stats().LoadMisses; got != l1Misses {
			t.Errorf("%s: %d L1 misses, want %d", step, got, l1Misses)
		}
		if l2 != l2Loads {
			t.Errorf("%s: %d L2 requests, want %d", step, l2, l2Loads)
		}
	}

	fills := make([]uint64, 4)
	for i := range fills {
		fills[i] = sim.loadLine(s, line(uint64(i)), 0) // cycles 0..3; 2 and 3 evict 0 and 1
	}
	if !(fills[0] > 8 && fills[0] < fills[1]) {
		t.Fatalf("setup: fills %v, want the first after cycle 8 and before the second", fills)
	}
	check("four cold loads", 4, 4)

	// Line 3 is resident and in flight: a hit that waits for the fill.
	if got := sim.loadLine(s, line(3), 0); got != fills[3] {
		t.Errorf("resident in-flight line arrives at %d, want its fill %d", got, fills[3])
	}
	check("resident in-flight hit", 4, 4)

	// Line 0 was evicted before its fill completed: merge, do not refetch.
	if got := sim.loadLine(s, line(0), 0); got != fills[0] {
		t.Errorf("evicted in-flight line arrives at %d, want its fill %d", got, fills[0])
	}
	check("evicted in-flight merge", 5, 4)

	// Line 0's fill has completed, line 1's has not (so the side table is
	// not empty): line 0 must be fetched again.
	if got := sim.loadLine(s, line(0), fills[0]); got <= fills[0]+sim.l1Latency {
		t.Errorf("refetch arrives at %d, not after the expired fill %d", got, fills[0])
	}
	check("expired fill refetch", 6, 5)
}

// TestL2MergesFillEvictedInFlight is the L1 test's counterpart for an L2
// slice: a two-line slice whose first line is evicted while its DRAM fill
// is outstanding. A request for it before the fill completes must merge
// (an L2 miss, no DRAM read); after, it must read DRAM again.
func TestL2MergesFillEvictedInFlight(t *testing.T) {
	cfg := testConfig()
	cfg.NumMemPartitions = 1
	cfg.TotalL2Bytes = 2 * cfg.LineBytes
	cfg.L2Assoc = 2
	sim := newTestSim(t, cfg)
	ms := sim.mem
	p := ms.partitions[0]
	line := func(i uint64) uint64 { return i * uint64(cfg.LineBytes) }
	check := func(step string, l2Misses, dramReads uint64) {
		t.Helper()
		if got := p.l2.Stats().LoadMisses; got != l2Misses {
			t.Errorf("%s: %d L2 misses, want %d", step, got, l2Misses)
		}
		if got := p.channel.Stats(0).Reads; got != dramReads {
			t.Errorf("%s: %d DRAM reads, want %d", step, got, dramReads)
		}
	}

	arrive := make([]uint64, 4)
	for i := range arrive {
		arrive[i] = ms.l2Load(0, line(uint64(i)), 0) // 2 and 3 evict 0 and 1
	}
	check("four cold loads", 4, 4)
	fill0, ok0 := p.l2Flight.m.Get(line(0))
	fill1, ok1 := p.l2Flight.m.Get(line(1))
	if !ok0 || !ok1 || fill0 >= fill1 {
		t.Fatalf("setup: side-table fills (%d, %v) and (%d, %v), want two, in issue order",
			fill0, ok0, fill1, ok1)
	}

	// Line 0 is evicted and its fill outstanding: merge, no DRAM read.
	if got := ms.l2Load(0, line(0), 0); got < arrive[0] {
		t.Errorf("merged request arrives at %d, before the fill's %d", got, arrive[0])
	}
	check("evicted in-flight merge", 5, 4)

	// Serve line 0 again exactly when its fill completes (line 1's is still
	// outstanding): the fill has expired, so DRAM is read again.
	ms.l2Load(0, line(0), fill0-uint64(cfg.NoCLatency))
	if svc := p.nextFree - 1; svc < fill0 || svc >= fill1 {
		t.Fatalf("setup: served at %d, want within [%d, %d)", svc, fill0, fill1)
	}
	check("expired fill refetch", 6, 5)
}
