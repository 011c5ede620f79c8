package bvh

import (
	"encoding/binary"
	"testing"
)

// Steps whose node delta is within −2048…2047 and whose triangle tests
// fit 0…7 take one word; every other step takes an escape and three.
func TestStepWordBoundaries(t *testing.T) {
	for _, c := range []struct {
		prev, node, tests int32
		words             int
	}{
		{0, 0, 0, 1},
		{5000, 5000 - 2048, 0, 1},
		{5000, 5000 - 2049, 0, 3},
		{5000, 5000 + 2047, 7, 1},
		{5000, 5000 + 2048, 0, 3},
		{0, 1, 8, 3},
		{0, MaxPackedNode, 0, 3},
		{MaxPackedNode, 0, 255, 3},
		{MaxPackedNode, MaxPackedNode - 1, 4, 1},
	} {
		words := AppendStep(nil, c.prev, c.node, c.tests)
		if len(words) != c.words || StepWords(c.prev, c.node, c.tests) != c.words {
			t.Errorf("step (%d, %d) after %d: %d words (StepWords %d), want %d",
				c.node, c.tests, c.prev, len(words), StepWords(c.prev, c.node, c.tests), c.words)
		}
		node, tests, next := DecodeStep(words, 0, c.prev)
		if node != c.node || tests != c.tests || next != len(words) {
			t.Errorf("step (%d, %d) after %d decodes to (%d, %d) ending at %d of %d",
				c.node, c.tests, c.prev, node, tests, next, len(words))
		}
	}
	if _, tests, _ := DecodeStep(AppendStep(nil, 0, 3, 1000), 0, 0); tests != 255 {
		t.Errorf("1000 triangle tests decode as %d, want PackStep's 255", tests)
	}
}

// FuzzStepWords round-trips an arbitrary step sequence through AppendStep
// and DecodeStep. Each 5-byte record is one step: a little-endian u32 x
// and a tests byte. With bit 31 of x clear the node is x's low 24 bits;
// with it set the node is the previous node plus int16(x), clamped to
// 0…MaxPackedNode, so deltas on both sides of ±2048 are common. Bit 30
// adds 256 to the tests, which PackStep saturates at 255.
func FuzzStepWords(f *testing.F) {
	rec := func(x uint32, tests byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, x), tests)
	}
	rel := func(d int16) uint32 { return 1<<31 | uint32(uint16(d)) }
	var seed []byte
	for _, r := range [][]byte{
		rec(0, 0), rec(rel(2047), 7), rec(rel(2048), 0), rec(rel(-2048), 8),
		rec(rel(-2049), 3), rec(MaxPackedNode, 255), rec(rel(1), 1<<1),
		rec(1<<30|12, 255), rec(rel(-32768), 0), rec(rel(0), 4),
	} {
		seed = append(seed, r...)
	}
	f.Add(seed)
	f.Add(rec(rel(-1), 0)) // clamps to node 0
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		type step struct{ node, tests int32 }
		var want []step
		var words []uint16
		prev, n := int32(0), 0
		for ; len(data) >= 5; data = data[5:] {
			x := binary.LittleEndian.Uint32(data)
			node := int32(x & MaxPackedNode)
			if x&(1<<31) != 0 {
				node = min(max(prev+int32(int16(x)), 0), MaxPackedNode)
			}
			tests := int32(data[4])
			if x&(1<<30) != 0 {
				tests += 256
			}
			before := len(words)
			words = AppendStep(words, prev, node, tests)
			one := node-prev >= -2048 && node-prev <= 2047 && tests <= 7
			if got := len(words) - before; got != StepWords(prev, node, tests) || (got == 1) != one {
				t.Fatalf("step (%d, %d) after %d took %d words; StepWords %d, one-word form expected %v",
					node, tests, prev, got, StepWords(prev, node, tests), one)
			}
			n += len(words) - before
			want = append(want, step{node, min(tests, 255)})
			prev = node
		}
		if n != len(words) {
			t.Fatalf("StepWords totals %d, AppendStep wrote %d", n, len(words))
		}
		prev = 0
		i := 0
		for k, w := range want {
			if i >= len(words) {
				t.Fatalf("words end after %d of %d steps", k, len(want))
			}
			var got step
			got.node, got.tests, i = DecodeStep(words, i, prev)
			if got != w {
				t.Fatalf("step %d decodes to %+v, want %+v", k, got, w)
			}
			prev = got.node
		}
		if i != len(words) {
			t.Fatalf("%d steps decoded from %d of %d words", len(want), i, len(words))
		}
	})
}
