package flatmap

import (
	"math/rand"
	"strings"
	"testing"
)

func TestBasicOps(t *testing.T) {
	m := New(0)
	if _, ok := m.Get(0); ok {
		t.Fatal("empty map contains key 0")
	}
	m.Set(0, 42) // key 0 must be a valid key
	m.Set(7, 1)
	m.Set(7, 2) // update
	if v, ok := m.Get(0); !ok || v != 42 {
		t.Fatalf("Get(0) = %d, %v", v, ok)
	}
	if v, ok := m.Get(7); !ok || v != 2 {
		t.Fatalf("Get(7) = %d, %v", v, ok)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	if !m.Delete(0) || m.Delete(0) {
		t.Fatal("Delete(0) wrong")
	}
	if _, ok := m.Get(0); ok {
		t.Fatal("deleted key still present")
	}
	if m.Len() != 1 {
		t.Fatalf("Len after delete = %d", m.Len())
	}
}

// TestMirrorsRuntimeMap drives a long random op sequence against a runtime
// map and requires identical observable behaviour, including through growth
// and backward-shift deletion.
func TestMirrorsRuntimeMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(0)
	ref := make(map[uint64]uint64)
	// Small key space forces collisions, wrap-around chains and re-inserts.
	key := func() uint64 { return uint64(rng.Intn(97)) * 128 }
	for i := 0; i < 50000; i++ {
		k := key()
		switch rng.Intn(4) {
		case 0, 1:
			v := rng.Uint64()
			m.Set(k, v)
			ref[k] = v
		case 2:
			got := m.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, want)
			}
			delete(ref, k)
		case 3:
			gv, gok := m.Get(k)
			wv, wok := ref[k]
			if gok != wok || (gok && gv != wv) {
				t.Fatalf("op %d: Get(%d) = (%d,%v), want (%d,%v)", i, k, gv, gok, wv, wok)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", i, m.Len(), len(ref))
		}
	}
	// Final full comparison.
	count := 0
	m.Range(func(k, v uint64) bool {
		count++
		if wv, ok := ref[k]; !ok || wv != v {
			t.Fatalf("Range: entry (%d,%d) not in reference", k, v)
		}
		return true
	})
	if count != len(ref) {
		t.Fatalf("Range visited %d entries, want %d", count, len(ref))
	}
}

func TestDeleteIf(t *testing.T) {
	m := New(0)
	for i := uint64(0); i < 1000; i++ {
		m.Set(i*128, i)
	}
	m.DeleteIf(func(_, v uint64) bool { return v%2 == 0 })
	m.Range(func(k, v uint64) bool {
		if v%2 == 0 {
			t.Fatalf("even entry (%d,%d) survived", k, v)
		}
		return true
	})
	// All odd entries must remain (none should be collateral damage).
	for i := uint64(1); i < 1000; i += 2 {
		if v, ok := m.Get(i * 128); !ok || v != i {
			t.Fatalf("odd entry %d lost: (%d,%v)", i, v, ok)
		}
	}
}

func TestClearKeepsCapacity(t *testing.T) {
	m := New(0)
	for i := uint64(0); i < 100; i++ {
		m.Set(i, i)
	}
	capBefore := len(m.slots)
	m.Clear()
	if m.Len() != 0 {
		t.Fatalf("Len after Clear = %d", m.Len())
	}
	if len(m.slots) != capBefore {
		t.Fatalf("Clear changed capacity %d -> %d", capBefore, len(m.slots))
	}
	if _, ok := m.Get(5); ok {
		t.Fatal("cleared map still has entries")
	}
	m.Set(5, 7)
	if v, ok := m.Get(5); !ok || v != 7 {
		t.Fatal("map unusable after Clear")
	}
}

func TestNewHint(t *testing.T) {
	m := New(1000)
	capBefore := len(m.slots)
	for i := uint64(0); i < 1000; i++ {
		m.Set(i, i)
	}
	if len(m.slots) != capBefore {
		t.Fatalf("map sized for 1000 grew from %d to %d", capBefore, len(m.slots))
	}
}

// TestEdgeKeys round-trips key 0 and line addresses just below the reserved
// key ^uint64(0) through every operation, before and after the table grows.
func TestEdgeKeys(t *testing.T) {
	const line = 128
	top := ^uint64(0) &^ (line - 1) // the highest line address
	edge := []uint64{0, top, top - line, top - 2*line, line}
	m := New(0)
	for i, k := range edge {
		m.Set(k, uint64(i)+100)
	}
	check := func(when string) {
		t.Helper()
		for i, k := range edge {
			if v, ok := m.Get(k); !ok || v != uint64(i)+100 {
				t.Fatalf("%s: Get(%#x) = (%d, %v), want (%d, true)", when, k, v, ok, i+100)
			}
		}
		if _, ok := m.Get(^uint64(0)); ok {
			t.Fatalf("%s: the reserved key reads as present", when)
		}
	}
	check("before grow")
	// Fill past the initial capacity so grow rehashes the edge keys.
	for i := uint64(1); i <= 4*minCapacity; i++ {
		m.Set(i*line*3, i)
	}
	check("after grow")

	if !m.Delete(top) || m.Delete(top) {
		t.Fatal("Delete of the top line address wrong")
	}
	if _, ok := m.Get(top); ok {
		t.Fatal("deleted top line address still present")
	}
	m.Set(top, 7)
	m.DeleteIf(func(k, _ uint64) bool { return k == 0 || k == top })
	for _, k := range []uint64{0, top} {
		if _, ok := m.Get(k); ok {
			t.Fatalf("DeleteIf left %#x", k)
		}
	}
	if v, ok := m.Get(top - line); !ok || v != 102 {
		t.Fatalf("DeleteIf took a neighbour: Get(%#x) = (%d, %v)", top-line, v, ok)
	}
	m.Clear()
	for _, k := range edge {
		if _, ok := m.Get(k); ok {
			t.Fatalf("Clear left %#x", k)
		}
	}
	m.Set(0, 1)
	m.Set(top, 2)
	if v, ok := m.Get(top); !ok || v != 2 || m.Len() != 2 {
		t.Fatalf("after Clear: Get(top) = (%d, %v), Len %d", v, ok, m.Len())
	}
}

func TestSetReservedKeyPanics(t *testing.T) {
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "0xffffffffffffffff") || !strings.Contains(msg, "reserved") {
			t.Fatalf("Set(^0) panicked with %v, want a message naming the reserved key", r)
		}
	}()
	New(0).Set(^uint64(0), 1)
}
