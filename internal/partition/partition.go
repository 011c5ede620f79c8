// Package partition implements step 4 of the Zatel pipeline: dividing the
// image plane into K equal groups, either coarse-grained (a contiguous
// rows×cols grid, Fig. 5) or fine-grained (small chunks dealt round-robin
// to groups, Fig. 6/7). Groups are expressed as lists of section blocks —
// the unit the representative-pixel selector picks (Section III-E) and the
// unit warps are formed from (block width 32 maps one block row to one
// warp).
package partition

import "fmt"

// Block is one section block: a rectangle of pixel indices (row-major
// within the block, top-left first).
type Block struct {
	Pixels []int32
}

// Group is one of the K simulation groups.
type Group struct {
	Blocks []Block
}

// NumPixels returns the group's pixel count.
func (g *Group) NumPixels() int {
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Pixels)
	}
	return n
}

// AllPixels returns the group's pixels in block order — the thread order
// its simulator instance launches warps in.
func (g *Group) AllPixels() []int32 {
	out := make([]int32, 0, g.NumPixels())
	for _, b := range g.Blocks {
		out = append(out, b.Pixels...)
	}
	return out
}

// Coarse splits the width×height plane directly into k contiguous tiles
// arranged in a rows×cols grid with rows ≥ cols (Fig. 5 uses 3×2 for K=6),
// then subdivides each tile into blockW×blockH section blocks.
func Coarse(width, height, k, blockW, blockH int) ([]Group, error) {
	if err := checkArgs(width, height, k, blockW, blockH); err != nil {
		return nil, err
	}
	rows, cols := gridShape(k)
	groups := make([]Group, 0, k)
	for r := 0; r < rows; r++ {
		y0 := r * height / rows
		y1 := (r + 1) * height / rows
		for c := 0; c < cols; c++ {
			x0 := c * width / cols
			x1 := (c + 1) * width / cols
			g := Group{}
			for by := y0; by < y1; by += blockH {
				for bx := x0; bx < x1; bx += blockW {
					g.Blocks = append(g.Blocks,
						makeBlock(width, bx, by, min(bx+blockW, x1), min(by+blockH, y1)))
				}
			}
			groups = append(groups, g)
		}
	}
	return nonEmpty(groups, width, height)
}

// Fine divides the plane into chunkW×chunkH chunks and deals them to the k
// groups round-robin in row-major chunk order (Fig. 6). The chunks are the
// groups' section blocks.
func Fine(width, height, k, chunkW, chunkH int) ([]Group, error) {
	if err := checkArgs(width, height, k, chunkW, chunkH); err != nil {
		return nil, err
	}
	groups := make([]Group, k)
	cy := 0
	for y := 0; y < height; y += chunkH {
		cx := 0
		for x := 0; x < width; x += chunkW {
			b := makeBlock(width, x, y, min(x+chunkW, width), min(y+chunkH, height))
			// Diagonal stagger (cx+cy) mod k matches Fig. 6 and keeps
			// every group sampling all regions even when the chunk-row
			// width is a multiple of k (plain round-robin would stripe
			// whole columns into one group).
			gi := (cx + cy) % k
			groups[gi].Blocks = append(groups[gi].Blocks, b)
			cx++
		}
		cy++
	}
	return nonEmpty(groups, width, height)
}

// nonEmpty returns groups, or an error naming the first group that got no
// pixel: a frame too small or too narrow for k (Fine's diagonal deal
// reaches only chunk-columns + chunk-rows − 1 groups; Coarse's grid can
// have more rows or columns than the plane has pixels). Every later step
// needs at least one pixel per group.
func nonEmpty(groups []Group, width, height int) ([]Group, error) {
	for gi := range groups {
		if len(groups[gi].Blocks) == 0 {
			return nil, fmt.Errorf("partition: group %d of %d gets no pixel of the %dx%d plane",
				gi, len(groups), width, height)
		}
	}
	return groups, nil
}

func makeBlock(width, x0, y0, x1, y1 int) Block {
	b := Block{Pixels: make([]int32, 0, (x1-x0)*(y1-y0))}
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			b.Pixels = append(b.Pixels, int32(y*width+x))
		}
	}
	return b
}

// gridShape factorises k into rows×cols with rows ≥ cols and cols the
// largest divisor of k not exceeding √k.
func gridShape(k int) (rows, cols int) {
	cols = 1
	for d := 1; d*d <= k; d++ {
		if k%d == 0 {
			cols = d
		}
	}
	return k / cols, cols
}

func checkArgs(width, height, k, bw, bh int) error {
	if width <= 0 || height <= 0 {
		return fmt.Errorf("partition: invalid plane %dx%d", width, height)
	}
	if k <= 0 {
		return fmt.Errorf("partition: k=%d must be positive", k)
	}
	if bw <= 0 || bh <= 0 {
		return fmt.Errorf("partition: invalid block %dx%d", bw, bh)
	}
	if k > width*height {
		return fmt.Errorf("partition: k=%d exceeds %d pixels", k, width*height)
	}
	return nil
}
