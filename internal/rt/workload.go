package rt

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"zatel/internal/bvh"
	"zatel/internal/scene"
	"zatel/internal/store"
	"zatel/internal/vecmath"
)

// Workload is a fully traced frame: one ThreadTrace per pixel plus the
// per-pixel cost profile. It is immutable once built and safe to share
// across concurrent simulator instances. It holds only what replay reads:
// the simulator turns traversal steps into addresses with bvh.NodeAddr and
// bvh.TriAddr and never reads a triangle, so the scene and the BVH the
// frame was traced against are dropped once tracing ends.
type Workload struct {
	// Scene is the name of the library scene the frame was traced from.
	Scene  string
	Width  int
	Height int
	SPP    int
	// Traces holds one trace per pixel in row-major order. A built or
	// decoded workload's traces share one arena, laid out in pixel order:
	// a handful of allocations for the whole frame instead of millions of
	// per-pixel slices, which shrinks GC scan work for store-resident
	// workloads and gives replay row-major locality.
	Traces []ThreadTrace
	// Cost is the per-pixel execution-cost estimate (row-major) used to
	// build heatmaps: node visits + 2·triangle tests + instructions/4.
	Cost []float64
}

// Pixels returns Width·Height.
func (w *Workload) Pixels() int { return w.Width * w.Height }

// traceBytes is the size of one trace handle.
const traceBytes = int64(unsafe.Sizeof(ThreadTrace{}))

// SizeBytes returns the workload's exact resident size for the artifact
// store's byte accounting: the handles, the costs and the arena behind the
// traces. An arena is counted once per run of consecutive traces that
// share it, which is once for a built or decoded workload. A workload
// keeps no geometry, so this is all it holds.
func (w *Workload) SizeBytes() int64 {
	n := int64(unsafe.Sizeof(*w))
	n += int64(len(w.Cost)) * 8
	n += int64(len(w.Traces)) * traceBytes
	var last *arena
	for i := range w.Traces {
		if a := w.Traces[i].a; a != last && a != nil {
			n += a.sizeBytes()
			last = a
		}
	}
	return n
}

// BuildWorkload path-traces every pixel of the scene at the given
// resolution and samples-per-pixel, recording traces. It parallelises
// across rows; results are deterministic regardless of parallelism because
// every pixel's randomness is derived from (scene seed, pixel, sample).
func BuildWorkload(s *scene.Scene, width, height, spp int) (*Workload, error) {
	return BuildWorkloadContext(context.Background(), s, width, height, spp)
}

// BuildWorkloadContext is BuildWorkload honouring ctx: cancellation before
// or during the BVH build skips the trace, cancellation during the trace
// stops it between rows, and either returns ctx's error instead of a
// workload. The scene and its BVH live only as long as the trace: the
// workload keeps the scene's name, not its geometry.
func BuildWorkloadContext(ctx context.Context, s *scene.Scene, width, height, spp int) (*Workload, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if width <= 0 || height <= 0 || spp <= 0 {
		return nil, fmt.Errorf("rt: invalid dimensions %dx%d spp=%d", width, height, spp)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	accel, err := bvh.Build(s, bvh.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(accel.Nodes) > maxNodeIndex {
		return nil, fmt.Errorf("rt: BVH with %d nodes exceeds packed-step capacity", len(accel.Nodes))
	}

	w := &Workload{
		Scene:  s.Name,
		Width:  width,
		Height: height,
		SPP:    spp,
		Cost:   make([]float64, width*height),
	}
	parts := make([]tracePart, width*height)

	cam := s.Cam
	cam.Finalize(float32(width) / float32(height))
	root := vecmath.NewRNG(s.Seed)

	var wg sync.WaitGroup
	rows := make(chan int)
	workers := runtime.GOMAXPROCS(0)
	if workers > height {
		workers = height
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := tracer{scene: s, bvh: accel, cam: &cam}
			for y := range rows {
				for x := 0; x < width; x++ {
					pix := y*width + x
					steps, tests := tr.rec.Steps, tr.rec.Tests
					parts[pix] = tr.tracePixel(x, y, width, height, spp, root.Split(uint64(pix)))
					// The instructions term is added once the trace is in
					// the arena, below.
					nodes, tris := tr.rec.Steps-steps, tr.rec.Tests-tests
					w.Cost[pix] = float64(nodes) + 2*float64(tris)
				}
			}
		}()
	}
feed:
	for y := 0; y < height; y++ {
		select {
		case rows <- y:
		case <-ctx.Done():
			break feed
		}
	}
	close(rows)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Compaction: the worker buffers over-allocate and interleave pixels
	// by row ownership; the arena restores determinism of layout, is sized
	// exactly and lets the oversized worker buffers go.
	if w.Traces, err = newArena(parts); err != nil {
		return nil, err
	}
	for pix, t := range w.Traces {
		w.Cost[pix] += float64(t.Instructions()) / 4
	}
	return w, nil
}

// tracer carries the per-goroutine state of workload construction. Each
// worker appends every pixel's ops, rays and step words into shared
// growing buffers instead of allocating per-pixel slices (rec also totals
// the steps and triangle tests that a pixel's Cost counts); BuildWorkload
// then copies every pixel into the workload's row-major arena (newArena),
// so worker buffer layout never leaks into the result.
type tracer struct {
	scene *scene.Scene
	bvh   *bvh.BVH
	cam   *scene.Camera

	ops  []Op
	rays []RayTrace
	rec  bvh.Recorder
}

// tracePixel executes the synthetic ray-generation shader for one pixel:
// spp independent paths, each tracing a primary ray, shadow rays at hits,
// and mirror/diffuse bounces up to the scene's depth limit. The returned
// part's slices point into the tracer's buffers; earlier pixels stay on
// retired chunks, which is fine — contents are immutable once a pixel
// finishes, and newArena re-homes everything.
func (tr *tracer) tracePixel(x, y, width, height, spp int, rng *vecmath.RNG) tracePart {
	tr.ops, tr.rays, tr.rec.Words = reserve(tr.ops, 1<<8), reserve(tr.rays, 1<<6), reserve(tr.rec.Words, 1<<12)
	opsStart, raysStart, stepsStart := len(tr.ops), len(tr.rays), len(tr.rec.Words)
	pix := uint32(y*width + x)
	fbAddr := uint32(FBBase + uint64(pix)*FBBytes)

	compute := func(n uint32) {
		// Merge adjacent compute ops (of this pixel) to keep traces compact.
		if len(tr.ops) > opsStart && tr.ops[len(tr.ops)-1].Kind == OpCompute {
			tr.ops[len(tr.ops)-1].Arg += n
			return
		}
		tr.ops = append(tr.ops, Op{Kind: OpCompute, Arg: n})
	}
	load := func(addr uint64) { tr.ops = append(tr.ops, Op{Kind: OpLoad, Arg: uint32(addr)}) }
	store := func(addr uint32) { tr.ops = append(tr.ops, Op{Kind: OpStore, Arg: addr}) }

	traceRay := func(r vecmath.Ray, kind RayKind, any bool) (bvh.Hit, bool) {
		var hit bvh.Hit
		var ok bool
		if any {
			ok = tr.bvh.IntersectAnyPacked(r, &tr.rec)
		} else {
			hit, ok = tr.bvh.IntersectPacked(r, &tr.rec)
		}
		tr.ops = append(tr.ops, Op{Kind: OpTrace, Arg: uint32(len(tr.rays) - raysStart)})
		tr.rays = append(tr.rays, RayTrace{Kind: kind, End: uint32(len(tr.rec.Words) - stepsStart)})
		return hit, ok
	}

	for s := 0; s < spp; s++ {
		srng := rng.Split(uint64(s))
		compute(instrsRayGen)
		u := (float32(x) + srng.Float32()) / float32(width)
		v := (float32(y) + srng.Float32()) / float32(height)
		ray := tr.cam.Ray(u, v)

		kind := RayPrimary
		for depth := 0; ; depth++ {
			hit, ok := traceRay(ray, kind, false)
			if !ok {
				compute(instrsMissShade)
				store(fbAddr)
				break
			}
			tri := tr.bvh.Tris[hit.Tri]
			mat := tr.scene.Mats[tri.Mat]
			load(MatBase + uint64(tri.Mat)*MatBytes)
			compute(instrsHitShade)

			p := ray.At(hit.T)
			n := tri.Normal()
			if n.Dot(ray.Dir) > 0 {
				n = n.Neg()
			}

			// Shadow ray toward the point light.
			toLight := tr.scene.Light.Sub(p)
			dist := toLight.Len()
			sray := vecmath.NewRay(p.Add(n.Scale(1e-3)), toLight.Norm())
			sray.TMax = dist
			traceRay(sray, RayShadow, true)
			compute(instrsPostLight)

			if depth >= tr.scene.MaxDepth {
				store(fbAddr)
				break
			}
			switch mat.Kind {
			case scene.Emissive:
				store(fbAddr)
			case scene.Mirror:
				compute(instrsMirror)
				dir := ray.Dir.Reflect(n)
				ray = vecmath.NewRay(p.Add(n.Scale(1e-3)), dir)
				kind = RayBounce
				continue
			case scene.Diffuse:
				if srng.Float32() < mat.BounceProb {
					compute(instrsBounce)
					ray = vecmath.NewRay(p.Add(n.Scale(1e-3)), srng.Hemisphere(n))
					kind = RayBounce
					continue
				}
				store(fbAddr)
			}
			break
		}
	}
	return tracePart{ops: tr.ops[opsStart:], rays: tr.rays[raysStart:], words: tr.rec.Words[stepsStart:]}
}

// reserve returns s if it has room for n more elements, or else a fresh
// empty chunk with room for 64n. A tracer buffer thus grows chunk by chunk
// instead of copying everything traced so far on each doubling; a pixel's
// ops, its rays and its steps each still share one backing array because
// they are reserved for up front (append copies only in the rare case
// that a pixel outgrows its reservation).
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return make([]T, 0, 64*n)
}

// WorkloadKey is the content address of a functional trace: the workload
// is fully determined by (scene name, resolution, spp) because every
// pixel's randomness derives from the scene seed. Downstream artifacts
// (quantized heatmaps, predictions) embed this digest in their own keys.
func WorkloadKey(name string, width, height, spp int) store.Digest {
	return store.NewKey("workload/v1").Str("scene", name).
		Int("w", width).Int("h", height).Int("spp", spp).Digest()
}

// buildCount tallies actual BuildWorkload executions through the cache;
// tests use it to prove concurrent callers share one build.
var buildCount atomic.Int64

// CachedWorkloadContext returns the workload for a library scene, building
// and memoising it in the process-wide artifact store (store.Default) on
// first use. Experiments re-trace the same frames dozens of times; the
// store makes the functional trace a one-time cost, mirroring how Zatel
// profiles a scene once and reuses the result.
//
// The build is coalesced by the store: concurrent callers for the same key
// share one BuildWorkload execution instead of each paying the full
// path-trace cost. Failed builds are not cached, so a later call retries.
// Cancelling ctx interrupts both a build this caller runs and a wait on
// another caller's in-flight build (which keeps running for the callers
// still interested). Its build closure is where a prediction builds its
// scene, once per workload build; the scene is garbage once the trace ends.
func CachedWorkloadContext(ctx context.Context, name string, width, height, spp int) (*Workload, error) {
	v, _, err := store.Default().GetOrBuild(ctx, WorkloadKey(name, width, height, spp),
		func(ctx context.Context) (any, int64, error) {
			buildCount.Add(1)
			s, err := scene.ByName(name)
			if err != nil {
				return nil, 0, err
			}
			w, err := BuildWorkloadContext(ctx, s, width, height, spp)
			if err != nil {
				return nil, 0, err
			}
			// Size 0 defers to the store's Sizer fallback: the workload
			// reports its exact arena-backed footprint itself.
			return w, 0, nil
		})
	if err != nil {
		return nil, err
	}
	return v.(*Workload), nil
}
