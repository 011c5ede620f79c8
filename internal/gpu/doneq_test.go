package gpu

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestDoneQOrdering(t *testing.T) {
	var q doneQ
	for _, c := range []uint64{5, 1, 9, 3, 7} {
		q.push(c)
	}
	want := []uint64{1, 3, 5, 7, 9}
	for i, w := range want {
		if q.len() != len(want)-i {
			t.Fatalf("len = %d", q.len())
		}
		if m := q.min(); m != w {
			t.Fatalf("min = %d, want %d", m, w)
		}
		if got := q.pop(); got != w {
			t.Fatalf("pop %d = %d, want %d", i, got, w)
		}
	}
}

func TestDoneQDrain(t *testing.T) {
	var q doneQ
	for _, c := range []uint64{10, 20, 30, 40} {
		q.push(c)
	}
	if n := q.drain(25); n != 2 {
		t.Errorf("drain(25) retired %d, want 2", n)
	}
	if q.len() != 2 || q.min() != 30 {
		t.Errorf("after drain: len=%d min=%d", q.len(), q.min())
	}
	if n := q.drain(5); n != 0 {
		t.Errorf("drain(5) retired %d, want 0", n)
	}
}

func TestDoneQHeapProperty(t *testing.T) {
	f := func(xs []uint64) bool {
		var q doneQ
		for _, x := range xs {
			q.push(x)
		}
		got := make([]uint64, 0, len(xs))
		for q.len() > 0 {
			got = append(got, q.pop())
		}
		want := append([]uint64(nil), xs...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	for _, c := range []uint64{50, 10, 90, 30, 70} {
		h.push(mkEvent(c, evRayWork, int(c%7), int32(c), int64(c)))
	}
	prev := uint64(0)
	for h.len() > 0 {
		if h.minCycle() < prev {
			t.Fatalf("minCycle went backwards")
		}
		e := h.pop()
		if e.cycle < prev {
			t.Fatalf("pop out of order: %d after %d", e.cycle, prev)
		}
		if e.kind() != evRayWork || e.sm() != int32(e.cycle%7) ||
			e.id() != int32(e.cycle) || e.uid() != uint32(e.cycle) {
			t.Fatalf("event payload corrupted: cycle %d kind %d sm %d id %d uid %d",
				e.cycle, e.kind(), e.sm(), e.id(), e.uid())
		}
		prev = e.cycle
	}
}

func TestEventPackingRoundtrip(t *testing.T) {
	cases := []struct {
		kind evKind
		sm   int
		id   int32
		uid  int64
	}{
		{evWarpWake, 0, 0, 0},
		{evRayWork, evSMLimit - 1, evIDLimit - 1, evUIDLimit - 1},
		{evFetchDone, 17, 12345, 987654321},
	}
	for _, c := range cases {
		e := mkEvent(42, c.kind, c.sm, c.id, c.uid)
		if e.kind() != c.kind || e.sm() != int32(c.sm) || e.id() != c.id ||
			e.uid() != uint32(c.uid) || e.cycle != 42 {
			t.Errorf("roundtrip %+v -> kind %d sm %d id %d uid %d",
				c, e.kind(), e.sm(), e.id(), e.uid())
		}
	}
}

func TestEventHeapStableUnderInterleaving(t *testing.T) {
	var h eventHeap
	// Interleave pushes and pops.
	h.push(event{cycle: 5})
	h.push(event{cycle: 2})
	if e := h.pop(); e.cycle != 2 {
		t.Fatalf("pop = %d", e.cycle)
	}
	h.push(event{cycle: 1})
	h.push(event{cycle: 9})
	if e := h.pop(); e.cycle != 1 {
		t.Fatalf("pop = %d", e.cycle)
	}
	if e := h.pop(); e.cycle != 5 {
		t.Fatalf("pop = %d", e.cycle)
	}
	if e := h.pop(); e.cycle != 9 {
		t.Fatalf("pop = %d", e.cycle)
	}
}
