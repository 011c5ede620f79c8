package partition

import (
	"strings"
	"testing"
	"testing/quick"
)

// collectAll gathers every pixel across groups and checks the partition
// property: each pixel appears exactly once.
func assertPartition(t *testing.T, groups []Group, width, height int) {
	t.Helper()
	seen := make([]bool, width*height)
	for gi, g := range groups {
		for _, b := range g.Blocks {
			for _, p := range b.Pixels {
				if p < 0 || int(p) >= len(seen) {
					t.Fatalf("group %d: pixel %d out of range", gi, p)
				}
				if seen[p] {
					t.Fatalf("pixel %d assigned twice", p)
				}
				seen[p] = true
			}
		}
	}
	for p, ok := range seen {
		if !ok {
			t.Fatalf("pixel %d unassigned", p)
		}
	}
}

func TestArgsValidation(t *testing.T) {
	if _, err := Coarse(0, 8, 2, 4, 2); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := Fine(8, 8, 0, 4, 2); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Fine(8, 8, 2, 0, 2); err == nil {
		t.Error("zero chunk accepted")
	}
	if _, err := Coarse(2, 2, 100, 1, 1); err == nil {
		t.Error("k > pixels accepted")
	}
}

func TestGridShapeMatchesPaper(t *testing.T) {
	// Fig. 5: K=6 → 3 rows × 2 columns.
	rows, cols := gridShape(6)
	if rows != 3 || cols != 2 {
		t.Errorf("gridShape(6) = %dx%d, want 3x2", rows, cols)
	}
	cases := []struct{ k, r, c int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {5, 5, 1}, {9, 3, 3}, {12, 4, 3},
	}
	for _, tc := range cases {
		r, c := gridShape(tc.k)
		if r != tc.r || c != tc.c {
			t.Errorf("gridShape(%d) = %dx%d, want %dx%d", tc.k, r, c, tc.r, tc.c)
		}
		if r*c != tc.k {
			t.Errorf("gridShape(%d) does not multiply back", tc.k)
		}
	}
}

func TestCoarseIsPartitionWithEqualGroups(t *testing.T) {
	groups, err := Coarse(128, 128, 4, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 4 {
		t.Fatalf("%d groups", len(groups))
	}
	assertPartition(t, groups, 128, 128)
	for gi, g := range groups {
		if g.NumPixels() != 128*128/4 {
			t.Errorf("group %d has %d pixels", gi, g.NumPixels())
		}
	}
}

func TestCoarseGroupsAreContiguousTiles(t *testing.T) {
	// With K=4 on a 64x64 plane, group 0 must be the top-left 32x32 tile.
	groups, err := Coarse(64, 64, 4, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range groups[0].AllPixels() {
		x, y := int(p)%64, int(p)/64
		if x >= 32 || y >= 32 {
			t.Fatalf("group 0 pixel (%d,%d) outside top-left tile", x, y)
		}
	}
}

func TestFineIsPartitionWithEqualGroups(t *testing.T) {
	groups, err := Fine(128, 128, 4, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertPartition(t, groups, 128, 128)
	for gi, g := range groups {
		if g.NumPixels() != 128*128/4 {
			t.Errorf("group %d has %d pixels", gi, g.NumPixels())
		}
	}
}

func TestFineStaggeredAssignmentMatchesFig6(t *testing.T) {
	// Fig. 6: a 5-chunk-wide plane with K=4 numbers chunks 0 1 2 3 0 on
	// the first row and 1 2 3 0 1 on the second (diagonal stagger).
	groups, err := Fine(5, 2, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{
		{0, 4, 8}, // group 0: (0,0), (4,0), (3,1)
		{1, 5, 9}, // group 1: (1,0), (0,1), (4,1)
		{2, 6},    // group 2
		{3, 7},    // group 3
	}
	for gi, pix := range want {
		got := groups[gi].AllPixels()
		if len(got) != len(pix) {
			t.Fatalf("group %d pixels %v, want %v", gi, got, pix)
		}
		for i := range pix {
			if got[i] != pix[i] {
				t.Fatalf("group %d pixels %v, want %v", gi, got, pix)
			}
		}
	}
}

func TestFineSamplesWholePlanePerGroup(t *testing.T) {
	// Fine-grained groups must span the full image area (the paper's
	// homogeneous-sampling property): each group's pixels must touch all
	// four quadrants of the plane.
	groups, err := Fine(64, 64, 4, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range groups {
		var quad [4]bool
		for _, p := range g.AllPixels() {
			x, y := int(p)%64, int(p)/64
			q := 0
			if x >= 32 {
				q = 1
			}
			if y >= 32 {
				q += 2
			}
			quad[q] = true
		}
		for q, ok := range quad {
			if !ok {
				t.Errorf("fine group %d misses quadrant %d", gi, q)
			}
		}
	}
}

func TestBlockShape(t *testing.T) {
	groups, err := Coarse(64, 64, 1, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := groups[0]
	// 64x64 tile with 32x2 blocks → 2 per row, 32 rows.
	if len(g.Blocks) != 64 {
		t.Fatalf("%d blocks", len(g.Blocks))
	}
	b := g.Blocks[0]
	if len(b.Pixels) != 64 {
		t.Fatalf("block has %d pixels", len(b.Pixels))
	}
	// Row-major inside the block: second row starts at plane offset 64.
	if b.Pixels[32] != 64 {
		t.Errorf("block second row starts at %d", b.Pixels[32])
	}
}

func TestRaggedDimensions(t *testing.T) {
	// Plane not divisible by chunk size still partitions exactly.
	groups, err := Fine(50, 30, 3, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertPartition(t, groups, 50, 30)
}

// Property: both division methods produce exact partitions of non-empty
// groups for arbitrary shapes, and reject exactly the shapes that would
// leave a group empty: Fine's diagonal deal over C×R chunks reaches C+R−1
// groups, and Coarse's rows×cols grid needs a pixel row per tile row and a
// pixel column per tile column.
func TestPartitionProperty(t *testing.T) {
	f := func(w8, h8, k8, bw8, bh8 uint8) bool {
		w := int(w8%40) + 1
		h := int(h8%40) + 1
		k := int(k8%6) + 1
		bw := int(bw8%8) + 1
		bh := int(bh8%8) + 1
		if k > w*h {
			return true
		}
		rows, cols := gridShape(k)
		chunks := (w+bw-1)/bw + (h+bh-1)/bh - 1
		for _, tc := range []struct {
			divide func(int, int, int, int, int) ([]Group, error)
			empty  bool
		}{{Coarse, rows > h || cols > w}, {Fine, chunks < k}} {
			groups, err := tc.divide(w, h, k, bw, bh)
			if err != nil || tc.empty {
				return err != nil && tc.empty
			}
			seen := make([]bool, w*h)
			for _, g := range groups {
				if g.NumPixels() == 0 {
					return false
				}
				for _, p := range g.AllPixels() {
					if p < 0 || int(p) >= len(seen) || seen[p] {
						return false
					}
					seen[p] = true
				}
			}
			for _, ok := range seen {
				if !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestEmptyGroupIsAnError: a plane that leaves some group without a pixel
// is rejected, naming the first empty group, by both division methods.
func TestEmptyGroupIsAnError(t *testing.T) {
	cases := []struct {
		name             string
		divide           func(width, height, k, bw, bh int) ([]Group, error)
		width, height, k int
		blockW, blockH   int
		wantGroup        string
	}{
		// 64×4 in 32×2 chunks is 2×2 chunks: four chunks, but the diagonal
		// deal reaches residues 0, 1 and 2 only.
		{"fine 64x4 k4", Fine, 64, 4, 4, 32, 2, "group 3 of 4"},
		// 8×8 is one chunk column of four chunk rows: residues 0..3.
		{"fine 8x8 k6", Fine, 8, 8, 6, 32, 2, "group 4 of 6"},
		// K=6 is a 3×2 grid; two pixel rows leave the first tile row empty.
		{"coarse 64x2 k6", Coarse, 64, 2, 6, 32, 2, "group 0 of 6"},
	}
	for _, c := range cases {
		groups, err := c.divide(c.width, c.height, c.k, c.blockW, c.blockH)
		if err == nil {
			t.Errorf("%s: accepted with groups of %v pixels", c.name, sizes(groups))
			continue
		}
		if groups != nil || !strings.Contains(err.Error(), c.wantGroup) {
			t.Errorf("%s: groups %v, error %q does not name %q", c.name, sizes(groups), err, c.wantGroup)
		}
	}
	// The smallest planes that do fill every group stay valid.
	if _, err := Fine(64, 6, 4, 32, 2); err != nil {
		t.Errorf("fine 64x6 k4: %v", err)
	}
	if _, err := Coarse(64, 3, 6, 32, 2); err != nil {
		t.Errorf("coarse 64x3 k6: %v", err)
	}
}

func sizes(groups []Group) []int {
	out := make([]int, len(groups))
	for i := range groups {
		out[i] = groups[i].NumPixels()
	}
	return out
}
