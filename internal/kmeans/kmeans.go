// Package kmeans implements one-dimensional K-means clustering with
// k-means++ seeding. Zatel uses it for heatmap colour quantization: the
// NVIDIA heat gradient is a monotone function of the scalar temperature, so
// clustering pixel temperatures is exactly clustering their colours.
package kmeans

import (
	"fmt"
	"math"
	"sort"

	"zatel/internal/vecmath"
)

// Result is the output of a clustering run.
type Result struct {
	// Centers holds the cluster centroids in ascending order.
	Centers []float64
	// Assign maps each input value to its cluster index in Centers.
	Assign []int
	// Iterations is how many Lloyd iterations ran before convergence.
	Iterations int
}

// Cluster groups values into k clusters. Seeding is deterministic for a
// given seed. k is clamped to the number of distinct values when there are
// at most 256 of them; past that, to the number of values, which leaves any
// sane k alone. maxIter bounds the Lloyd iterations (20 is plenty in one
// dimension). The values must be finite, and small enough that their sum
// is: heatmap temperatures lie in [0,1].
func Cluster(values []float64, k int, seed uint64, maxIter int) (Result, error) {
	if len(values) == 0 {
		return Result{}, fmt.Errorf("kmeans: no values")
	}
	if k <= 0 {
		return Result{}, fmt.Errorf("kmeans: k=%d must be positive", k)
	}
	if maxIter <= 0 {
		return Result{}, fmt.Errorf("kmeans: maxIter=%d must be positive", maxIter)
	}
	pal := newPalette(values)
	distinct := len(pal.uniq)
	if distinct > 256 {
		distinct = len(values)
	}
	if k > distinct {
		k = distinct
	}

	centers := seedPlusPlus(values, pal, k, vecmath.NewRNG(seed))
	assign := make([]int, len(values))
	centerOf := make([]int, len(pal.uniq)) // nearest center of each distinct value
	iters := 0
	for ; iters < maxIter; iters++ {
		changed := false
		for u, v := range pal.uniq {
			centerOf[u] = nearest(centers, v)
		}
		for i, id := range pal.ids {
			if c := centerOf[id]; assign[i] != c {
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
func seedPlusPlus(values []float64, pal palette, k int, rng *vecmath.RNG) []float64 {
	centers := make([]float64, 0, k)
	centers = append(centers, values[rng.Intn(len(values))])
	d2 := make([]float64, len(values))
	nearD2 := make([]float64, len(pal.uniq))
	for len(centers) < k {
		for u, v := range pal.uniq {
			d := v - centers[nearest(centers, v)]
			nearD2[u] = d * d
		}
		var total float64
		for i, id := range pal.ids {
			d2[i] = nearD2[id]
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

// nearest returns the index of the center closest to v, the first one on
// ties. For finite inputs every distance is a non-negative float that is
// not NaN, and such floats order as their bit patterns do as unsigned
// integers (the sign bit is cleared, so -0 reads as 0). The comparison
// then compiles to a conditional move instead of a branch that scattered
// values make the predictor lose.
func nearest(centers []float64, v float64) int {
	best, bestD := 0, math.Float64bits(math.Abs(v-centers[0]))
	for c := 1; c < len(centers); c++ {
		if d := math.Float64bits(math.Abs(v - centers[c])); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// palette lists the distinct input values and maps each value to its
// index there. A heatmap holds a few hundred to a few thousand
// temperatures across thousands of pixels, so the nearest-center searches
// run once per distinct value and the per-value passes only look the
// result up. Those passes keep their order, so every sum, and with it
// every center and assignment, is what a search per value gives. Values
// equal under == share an entry; for 0 and -0 that cannot change a
// distance, as both give equal differences to any center.
type palette struct {
	uniq []float64
	ids  []int32 // index into uniq of each value
}

func newPalette(values []float64) palette {
	seen := make(map[float64]int32, 16)
	pal := palette{ids: make([]int32, len(values))}
	for i, v := range values {
		id, ok := seen[v]
		if !ok {
			id = int32(len(pal.uniq))
			seen[v] = id
			pal.uniq = append(pal.uniq, v)
		}
		pal.ids[i] = id
	}
	return pal
}
