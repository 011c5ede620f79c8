package kmeans

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"zatel/internal/vecmath"
)

// refCluster and its helpers are Cluster with one branchy nearest-center
// search per value, kept as the oracle: searching once per distinct value
// with the conditional-move nearest must not move a single bit of any
// center or assignment.
func refCluster(values []float64, k int, seed uint64, maxIter int) (Result, error) {
	if len(values) == 0 {
		return Result{}, fmt.Errorf("kmeans: no values")
	}
	if k <= 0 {
		return Result{}, fmt.Errorf("kmeans: k=%d must be positive", k)
	}
	if maxIter <= 0 {
		return Result{}, fmt.Errorf("kmeans: maxIter=%d must be positive", maxIter)
	}
	distinct := refCountDistinct(values)
	if k > distinct {
		k = distinct
	}

	centers := refSeedPlusPlus(values, k, vecmath.NewRNG(seed))
	assign := make([]int, len(values))
	iters := 0
	for ; iters < maxIter; iters++ {
		changed := false
		for i, v := range values {
			c := refNearest(centers, v)
			if assign[i] != c {
				assign[i] = c
				changed = true
			}
		}
		// Recompute centroids.
		sums := make([]float64, len(centers))
		counts := make([]int, len(centers))
		for i, v := range values {
			sums[assign[i]] += v
			counts[assign[i]]++
		}
		for c := range centers {
			if counts[c] > 0 {
				centers[c] = sums[c] / float64(counts[c])
			}
		}
		if !changed && iters > 0 {
			break
		}
	}

	// Present clusters in ascending centroid order so callers can treat
	// the index as an ordinal temperature level.
	order := make([]int, len(centers))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return centers[order[a]] < centers[order[b]] })
	rank := make([]int, len(centers))
	sorted := make([]float64, len(centers))
	for newIdx, oldIdx := range order {
		rank[oldIdx] = newIdx
		sorted[newIdx] = centers[oldIdx]
	}
	for i := range assign {
		assign[i] = rank[assign[i]]
	}
	return Result{Centers: sorted, Assign: assign, Iterations: iters}, nil
}

// seedPlusPlus picks k initial centers with the k-means++ rule: the first
// uniformly, the rest proportional to squared distance from the nearest
// chosen center.
func refSeedPlusPlus(values []float64, k int, rng *vecmath.RNG) []float64 {
	centers := make([]float64, 0, k)
	centers = append(centers, values[rng.Intn(len(values))])
	d2 := make([]float64, len(values))
	for len(centers) < k {
		var total float64
		for i, v := range values {
			d := v - centers[refNearest(centers, v)]
			d2[i] = d * d
			total += d2[i]
		}
		if total == 0 {
			// All remaining values coincide with centers; duplicate one.
			centers = append(centers, centers[0])
			continue
		}
		target := rng.Float64() * total
		acc := 0.0
		pick := len(values) - 1
		for i, w := range d2 {
			acc += w
			if acc >= target {
				pick = i
				break
			}
		}
		centers = append(centers, values[pick])
	}
	return centers
}

func refNearest(centers []float64, v float64) int {
	best, bestD := 0, -1.0
	for c, center := range centers {
		d := v - center
		if d < 0 {
			d = -d
		}
		if bestD < 0 || d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

func refCountDistinct(values []float64) int {
	seen := make(map[float64]struct{}, 16)
	for _, v := range values {
		seen[v] = struct{}{}
		if len(seen) > 256 {
			return len(values) // enough distinct values for any sane k
		}
	}
	return len(seen)
}

// TestClusterMatchesReference compares Cluster with refCluster bit for bit
// on inputs with few distinct values, with mostly distinct ones, around
// the 256 distinct values where the clamp on k changes, and with signed
// zeros. Non-finite values are kept out of Cluster by heatmap.FromCost.
func TestClusterMatchesReference(t *testing.T) {
	rng := vecmath.NewRNG(9)
	for round := 0; round < 100; round++ {
		n := 1 + rng.Intn(2000)
		values := make([]float64, n)
		for i := range values {
			switch round % 4 {
			case 0:
				values[i] = float64(rng.Intn(40)) * 0.25 // few distinct
			case 1:
				values[i] = rng.Float64() // mostly distinct
			case 2:
				values[i] = float64(rng.Intn(258)) // around the clamp
			case 3:
				values[i] = math.Copysign(0, rng.Float64()-0.5) + float64(rng.Intn(3))
			}
		}
		for _, k := range []int{1, 2, 3, 8, 13} {
			seed := uint64(round*16 + k)
			got, gerr := Cluster(values, k, seed, 25)
			want, werr := refCluster(values, k, seed, 25)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("round %d k %d: error %v, reference %v", round, k, gerr, werr)
			}
			if !sameResult(got, want) {
				t.Fatalf("round %d k %d: %d values: result differs from reference\ngot  %v (%d iterations)\nwant %v (%d iterations)",
					round, k, n, got.Centers, got.Iterations, want.Centers, want.Iterations)
			}
		}
	}
	// k above the distinct count, on both sides of 256 distinct values:
	// clamped below, left alone above.
	for _, distinct := range []int{250, 300} {
		values := make([]float64, 2*distinct)
		for i := range values {
			values[i] = float64(i % distinct)
		}
		k := distinct + 10
		got, _ := Cluster(values, k, 3, 25)
		want, _ := refCluster(values, k, 3, 25)
		if !sameResult(got, want) {
			t.Fatalf("%d distinct values, k %d: result differs from reference", distinct, k)
		}
	}
}

func sameResult(a, b Result) bool {
	if a.Iterations != b.Iterations || len(a.Centers) != len(b.Centers) || len(a.Assign) != len(b.Assign) {
		return false
	}
	for i := range a.Centers {
		if math.Float64bits(a.Centers[i]) != math.Float64bits(b.Centers[i]) {
			return false
		}
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			return false
		}
	}
	return true
}
