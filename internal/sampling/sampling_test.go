package sampling

import (
	"math"
	"testing"

	"zatel/internal/heatmap"
	"zatel/internal/partition"
	"zatel/internal/vecmath"
)

// gradientField builds a quantized heatmap whose left half is cold (0) and
// right half hot (1), plus the single group covering it.
func halfHotField(t *testing.T, w, h, levels int) (*heatmap.Quantized, *partition.Group) {
	t.Helper()
	cost := make([]float64, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x >= w/2 {
				cost[y*w+x] = 10
			} else {
				cost[y*w+x] = 1
			}
		}
	}
	hm, err := heatmap.FromCost(cost, w, h)
	if err != nil {
		t.Fatal(err)
	}
	q, err := hm.Quantize(levels, 1)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := partition.Coarse(w, h, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return q, &groups[0]
}

func TestBudgetClamps(t *testing.T) {
	// Half-hot field: mean coldness = (0.9+0)/2 = 0.45 — inside the clamp.
	q, g := halfHotField(t, 32, 8, 2)
	p := Budget(q, g)
	if p < MinPercent || p > MaxPercent {
		t.Fatalf("budget %v outside clamp", p)
	}
	mean := MeanColdness(q, g)
	if math.Abs(p-mean) > 1e-9 {
		t.Errorf("in-range budget %v != mean %v", p, mean)
	}
}

func TestBudgetClampBounds(t *testing.T) {
	// All-hot field → coldness 0 → clamped to MinPercent.
	cost := make([]float64, 64)
	for i := range cost {
		cost[i] = 5
	}
	hm, _ := heatmap.FromCost(cost, 8, 8)
	q, _ := hm.Quantize(2, 1)
	groups, _ := partition.Coarse(8, 8, 1, 4, 2)
	if p := Budget(q, &groups[0]); p != MinPercent {
		t.Errorf("all-hot budget %v, want %v", p, MinPercent)
	}
	// All-cold (near zero temperature after normalization is impossible
	// with uniform cost, so craft two levels and a group of only the cold
	// one).
	cost2 := make([]float64, 64)
	cost2[63] = 100 // single hot pixel defines the max
	for i := 0; i < 63; i++ {
		cost2[i] = 1
	}
	hm2, _ := heatmap.FromCost(cost2, 8, 8)
	q2, _ := hm2.Quantize(2, 1)
	groups2, _ := partition.Coarse(8, 8, 1, 4, 2)
	if p := Budget(q2, &groups2[0]); p != MaxPercent {
		t.Errorf("cold-dominated budget %v, want %v", p, MaxPercent)
	}
}

func TestSelectValidation(t *testing.T) {
	q, g := halfHotField(t, 32, 8, 2)
	rng := vecmath.NewRNG(1)
	if _, err := Select(q, g, 0, Uniform, rng); err == nil {
		t.Error("fraction 0 accepted")
	}
	if _, err := Select(q, g, 1.5, Uniform, rng); err == nil {
		t.Error("fraction >1 accepted")
	}
	if _, err := Select(q, g, 0.5, Distribution(99), rng); err == nil {
		t.Error("unknown distribution accepted")
	}
}

func TestSelectFractionRoughlyHonoured(t *testing.T) {
	q, g := halfHotField(t, 64, 32, 4)
	rng := vecmath.NewRNG(2)
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.9} {
		sel, err := Select(q, g, frac, Uniform, rng)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sel.Fraction-frac) > 0.08 {
			t.Errorf("asked %v got %v", frac, sel.Fraction)
		}
		if len(sel.Pixels) == 0 {
			t.Errorf("empty selection at %v", frac)
		}
	}
}

func TestSelectFullFraction(t *testing.T) {
	q, g := halfHotField(t, 32, 8, 2)
	sel, err := Select(q, g, 1, Uniform, vecmath.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Pixels) != g.NumPixels() || sel.Fraction != 1 {
		t.Errorf("full selection got %d/%d", len(sel.Pixels), g.NumPixels())
	}
}

func TestSelectNoDuplicates(t *testing.T) {
	q, g := halfHotField(t, 64, 16, 3)
	sel, err := Select(q, g, 0.4, ExpTmp, vecmath.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int32]bool{}
	for _, p := range sel.Pixels {
		if seen[p] {
			t.Fatalf("pixel %d selected twice", p)
		}
		seen[p] = true
	}
}

func TestSelectPixelsBelongToGroup(t *testing.T) {
	cost := make([]float64, 64*16)
	for i := range cost {
		cost[i] = float64(i % 7)
	}
	hm, _ := heatmap.FromCost(cost, 64, 16)
	q, _ := hm.Quantize(4, 1)
	groups, err := partition.Fine(64, 16, 4, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	member := map[int32]bool{}
	for _, p := range groups[2].AllPixels() {
		member[p] = true
	}
	sel, err := Select(q, &groups[2], 0.5, LinTmp, vecmath.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sel.Pixels {
		if !member[p] {
			t.Fatalf("selected pixel %d outside group", p)
		}
	}
}

// hotShare returns the fraction of selected pixels lying in the hot half.
func hotShare(sel Selection, w int) float64 {
	hot := 0
	for _, p := range sel.Pixels {
		if int(p)%w >= w/2 {
			hot++
		}
	}
	return float64(hot) / float64(len(sel.Pixels))
}

func TestDistributionsOrderHotEmphasis(t *testing.T) {
	// With a half-hot field: uniform should select ≈50% hot pixels;
	// lintmp and exptmp progressively more.
	q, g := halfHotField(t, 64, 64, 2)
	rng := vecmath.NewRNG(6)
	selU, err := Select(q, g, 0.3, Uniform, rng)
	if err != nil {
		t.Fatal(err)
	}
	selL, err := Select(q, g, 0.3, LinTmp, rng)
	if err != nil {
		t.Fatal(err)
	}
	selE, err := Select(q, g, 0.3, ExpTmp, rng)
	if err != nil {
		t.Fatal(err)
	}
	u, l, e := hotShare(selU, 64), hotShare(selL, 64), hotShare(selE, 64)
	if math.Abs(u-0.5) > 0.15 {
		t.Errorf("uniform hot share %v, want ≈0.5", u)
	}
	if l < u {
		t.Errorf("lintmp hot share %v below uniform %v", l, u)
	}
	if e < l-1e-9 {
		t.Errorf("exptmp hot share %v below lintmp %v", e, l)
	}
	if e < 0.95 {
		t.Errorf("exptmp hot share %v; warmth^5 should almost exclusively pick hot blocks", e)
	}
}

func TestSelectDeterministicPerSeed(t *testing.T) {
	q, g := halfHotField(t, 64, 16, 3)
	a, err := Select(q, g, 0.4, Uniform, vecmath.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Select(q, g, 0.4, Uniform, vecmath.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pixels) != len(b.Pixels) {
		t.Fatal("selection sizes differ for same seed")
	}
	for i := range a.Pixels {
		if a.Pixels[i] != b.Pixels[i] {
			t.Fatal("selection differs for same seed")
		}
	}
	c, err := Select(q, g, 0.4, Uniform, vecmath.NewRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	same := len(c.Pixels) == len(a.Pixels)
	if same {
		identical := true
		for i := range a.Pixels {
			if a.Pixels[i] != c.Pixels[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different seeds produced identical random selection")
		}
	}
}

func TestDistributionString(t *testing.T) {
	if Uniform.String() != "uniform" || LinTmp.String() != "lintmp" || ExpTmp.String() != "exptmp" {
		t.Error("distribution names wrong")
	}
	if Stratified.String() != "stratified" || RankedSet.String() != "rankedset" {
		t.Error("replicated distribution names wrong")
	}
}

func TestParseDistribution(t *testing.T) {
	cases := map[string]Distribution{
		"":           Uniform,
		"uniform":    Uniform,
		"lintmp":     LinTmp,
		"exptmp":     ExpTmp,
		"stratified": Stratified,
		"rankedset":  RankedSet,
		"ranked-set": RankedSet,
	}
	for name, want := range cases {
		got, err := ParseDistribution(name)
		if err != nil || got != want {
			t.Errorf("ParseDistribution(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseDistribution("gaussian"); err == nil {
		t.Error("unknown name accepted")
	}
}

// FuzzParseDistribution: every name ParseDistribution accepts yields a
// valid strategy whose String parses back to the same strategy.
func FuzzParseDistribution(f *testing.F) {
	for _, name := range []string{"", "uniform", "lintmp", "exptmp", "stratified", "rankedset", "ranked-set", "Uniform", "gaussian"} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		d, err := ParseDistribution(name)
		if err != nil {
			return
		}
		back, err := ParseDistribution(d.String())
		if !d.Valid() || err != nil || back != d {
			t.Fatalf("ParseDistribution(%q) = %v, but its String %q parses to %v, %v", name, d, d.String(), back, err)
		}
	})
}

func TestReplicatedClassification(t *testing.T) {
	for _, d := range []Distribution{Uniform, LinTmp, ExpTmp} {
		if d.Replicated() {
			t.Errorf("%s claims to be replicated", d)
		}
	}
	for _, d := range []Distribution{Stratified, RankedSet} {
		if !d.Replicated() || !d.Valid() {
			t.Errorf("%s should be a valid replicated strategy", d)
		}
	}
}

func allDistributions() []Distribution {
	return []Distribution{Uniform, LinTmp, ExpTmp, Stratified, RankedSet}
}

// TestSelectDeterministicAllDistributions is the determinism property suite:
// for every strategy, an identical (seed, group, fraction) input must yield a
// byte-identical selection — the contract the prediction cache and the
// replicate CIs both lean on.
func TestSelectDeterministicAllDistributions(t *testing.T) {
	q, g := halfHotField(t, 64, 32, 3)
	for _, dist := range allDistributions() {
		for _, frac := range []float64{0.1, 0.4, 0.8} {
			a, err := Select(q, g, frac, dist, vecmath.NewRNG(21))
			if err != nil {
				t.Fatalf("%s@%v: %v", dist, frac, err)
			}
			b, err := Select(q, g, frac, dist, vecmath.NewRNG(21))
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Pixels) != len(b.Pixels) {
				t.Fatalf("%s@%v: sizes differ (%d vs %d)", dist, frac, len(a.Pixels), len(b.Pixels))
			}
			for i := range a.Pixels {
				if a.Pixels[i] != b.Pixels[i] {
					t.Fatalf("%s@%v: pixel %d differs for same seed", dist, frac, i)
				}
			}
		}
	}
}

// TestRealizedFractionNeverOvershoots is the budget-overshoot regression
// test: whatever the strategy, the realized fraction may exceed the request
// by at most one pixel-equivalent (the rounding of target itself).
func TestRealizedFractionNeverOvershoots(t *testing.T) {
	q, g := halfHotField(t, 64, 32, 3)
	m := float64(g.NumPixels())
	for _, dist := range allDistributions() {
		for _, frac := range []float64{0.05, 0.1, 0.33, 0.5, 0.77, 0.9} {
			sel, err := Select(q, g, frac, dist, vecmath.NewRNG(31))
			if err != nil {
				t.Fatalf("%s@%v: %v", dist, frac, err)
			}
			if sel.Fraction > frac+1/m+1e-9 {
				t.Errorf("%s@%v: realized fraction %v overshoots by more than one pixel",
					dist, frac, sel.Fraction)
			}
			reps, err := SelectReplicates(q, g, frac, dist, 4, vecmath.NewRNG(31))
			if err != nil {
				t.Fatalf("%s@%v replicates: %v", dist, frac, err)
			}
			total := 0
			for _, r := range reps {
				total += len(r.Pixels)
			}
			if float64(total)/m > frac+1/m+1e-9 {
				t.Errorf("%s@%v: replicates cover %v, overshooting the budget",
					dist, frac, float64(total)/m)
			}
		}
	}
}

// TestSelectReplicatesDisjointDeterministic checks the repeated-subsampling
// invariants: replicates are pairwise disjoint, every replicate is non-empty,
// together they hit the rounded budget, and the whole set is reproducible
// from the seed.
func TestSelectReplicatesDisjointDeterministic(t *testing.T) {
	q, g := halfHotField(t, 64, 32, 3)
	m := g.NumPixels()
	for _, dist := range []Distribution{Stratified, RankedSet} {
		a, err := SelectReplicates(q, g, 0.5, dist, 5, vecmath.NewRNG(41))
		if err != nil {
			t.Fatalf("%s: %v", dist, err)
		}
		if len(a) != 5 {
			t.Fatalf("%s: got %d replicates, want 5", dist, len(a))
		}
		seen := map[int32]int{}
		total := 0
		for ri, rep := range a {
			if len(rep.Pixels) == 0 {
				t.Fatalf("%s: replicate %d empty", dist, ri)
			}
			total += len(rep.Pixels)
			for _, p := range rep.Pixels {
				if prev, dup := seen[p]; dup {
					t.Fatalf("%s: pixel %d in replicates %d and %d", dist, p, prev, ri)
				}
				seen[p] = ri
			}
		}
		if want := int(0.5*float64(m) + 0.5); total != want {
			t.Errorf("%s: replicates cover %d pixels, want %d", dist, total, want)
		}
		b, err := SelectReplicates(q, g, 0.5, dist, 5, vecmath.NewRNG(41))
		if err != nil {
			t.Fatal(err)
		}
		for ri := range a {
			if len(a[ri].Pixels) != len(b[ri].Pixels) {
				t.Fatalf("%s: replicate %d size differs for same seed", dist, ri)
			}
			for i := range a[ri].Pixels {
				if a[ri].Pixels[i] != b[ri].Pixels[i] {
					t.Fatalf("%s: replicate %d differs for same seed", dist, ri)
				}
			}
		}
	}
}

// threeBandField builds a field with cold/warm/hot vertical thirds so
// shortfall behaviour between the bands is observable.
func threeBandField(t *testing.T, w, h int) (*heatmap.Quantized, *partition.Group) {
	t.Helper()
	cost := make([]float64, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			switch {
			case x >= 2*w/3:
				cost[y*w+x] = 10
			case x >= w/3:
				cost[y*w+x] = 5
			default:
				cost[y*w+x] = 1
			}
		}
	}
	hm, err := heatmap.FromCost(cost, w, h)
	if err != nil {
		t.Fatal(err)
	}
	q, err := hm.Quantize(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	groups, err := partition.Coarse(w, h, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return q, &groups[0]
}

// TestExpTmpShortfallPrefersWarm is the shortfall-dilution regression test:
// when exptmp's warmth^5 quota exhausts the hot band, the remaining pixels
// must come from the warm band, not dilute uniformly into the cold one.
func TestExpTmpShortfallPrefersWarm(t *testing.T) {
	q, g := threeBandField(t, 96, 32)
	// 50% demand but the hot third holds only ~33% — a guaranteed shortfall.
	sel, err := Select(q, g, 0.5, ExpTmp, vecmath.NewRNG(51))
	if err != nil {
		t.Fatal(err)
	}
	cold := 0
	for _, p := range sel.Pixels {
		if int(p)%96 < 96/3 {
			cold++
		}
	}
	coldShare := float64(cold) / float64(len(sel.Pixels))
	if coldShare > 0.05 {
		t.Errorf("exptmp shortfall drew %.1f%% cold pixels; the warm band should absorb it",
			100*coldShare)
	}
}
