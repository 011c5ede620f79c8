// Package rt is the functional ray tracer. It plays the role Vulkan-Sim's
// functional mode (or a hardware GPU) plays in the paper: for every pixel it
// path-traces the scene once, and while doing so records the exact sequence
// of instructions, memory accesses and BVH traversal steps the pixel's
// thread would execute. The cycle-level GPU model (internal/gpu) then
// replays these traces under a particular hardware configuration.
package rt

import (
	"fmt"

	"zatel/internal/bvh"
)

// Memory regions for non-BVH data, disjoint from bvh.NodeBase/bvh.TriBase.
const (
	// MatBase is the byte address of material record 0.
	MatBase uint64 = 0x3000_0000
	// MatBytes is the size of one material record.
	MatBytes uint64 = 64
	// FBBase is the byte address of the framebuffer.
	FBBase uint64 = 0x4000_0000
	// FBBytes is the per-pixel framebuffer footprint.
	FBBytes uint64 = 16
)

// OpKind discriminates thread-trace operations.
type OpKind uint8

const (
	// OpCompute executes Arg ALU instructions.
	OpCompute OpKind = iota
	// OpLoad issues a global memory read of the byte address Arg.
	OpLoad
	// OpStore issues a global memory write of the byte address Arg.
	OpStore
	// OpTrace hands ray Arg (see ThreadTrace.RayWords) to the RT unit and
	// waits for it.
	OpTrace
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpTrace:
		return "trace"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one thread-trace operation.
type Op struct {
	Kind OpKind
	// Arg is the instruction count (OpCompute), byte address
	// (OpLoad/OpStore) or ray index (OpTrace).
	Arg uint32
}

// maxNodeIndex mirrors the packed-step capacity. Both step encodings live
// in internal/bvh so traversal can append step words directly into the
// workload's step arena. The full PackStep form is re-exported here: it is
// the form the disk format stores and ThreadTrace.AppendRay takes.
const maxNodeIndex = bvh.MaxPackedNode

// PackStep encodes a traversal step (bvh.PackStep). Triangle-test counts
// saturate at 255.
func PackStep(node int32, triTests int32) uint32 { return bvh.PackStep(node, triTests) }

// UnpackStep decodes a traversal step (bvh.UnpackStep).
func UnpackStep(s uint32) (node int32, triTests int32) { return bvh.UnpackStep(s) }

// RayKind labels what role a traced ray plays in the path; the timing model
// reports RT statistics per kind.
type RayKind uint8

const (
	// RayPrimary is a camera ray.
	RayPrimary RayKind = iota
	// RayShadow is a light-visibility ray.
	RayShadow
	// RayBounce is a secondary (reflection or diffuse-bounce) ray.
	RayBounce
)

// RayTrace is the recorded traversal of one ray: its kind and where its
// step words end in the owning ThreadTrace's Steps. A ray's words begin
// where the previous ray's end (at 0 for the first ray), so a ray costs 8
// bytes and no slice header of its own.
type RayTrace struct {
	Kind RayKind
	// End is the offset just past the ray's last word in ThreadTrace.Steps.
	End uint32
}

// ThreadTrace is the full recorded execution of one pixel's thread: a flat
// operation list referencing the rays it traced, and the per-node
// traversal steps of all those rays back to back, as 16-bit step words
// (bvh.AppendStep): each ray's steps are coded against its own previous
// node, so a ray's words decode on their own.
type ThreadTrace struct {
	Ops   []Op
	Rays  []RayTrace
	Steps []uint16
}

// RayWords returns ray i's step words, a view into t.Steps. Decode them in
// order with bvh.DecodeStep, starting from node 0.
func (t *ThreadTrace) RayWords(i int) []uint16 {
	var start uint32
	if i > 0 {
		start = t.Rays[i-1].End
	}
	end := t.Rays[i].End
	return t.Steps[start:end:end]
}

// AppendRay appends a ray of the given kind whose traversal steps, in
// PackStep form, are steps. It adds no OpTrace op: that is the caller's.
func (t *ThreadTrace) AppendRay(kind RayKind, steps ...uint32) {
	prev := int32(0)
	for _, s := range steps {
		node, tests := UnpackStep(s)
		t.Steps = bvh.AppendStep(t.Steps, prev, node, tests)
		prev = node
	}
	t.Rays = append(t.Rays, RayTrace{Kind: kind, End: uint32(len(t.Steps))})
}

// TraceSource supplies threads to a simulation in warp order without
// requiring the caller to materialise a contiguous []ThreadTrace. Zatel's
// group runs mix selected pixels (traces read straight from the workload)
// with filtered ones (a single shared prologue trace), so a view costs
// nothing where a copy used to cost one slice per simulator call.
// Implementations must be safe for concurrent readers and the returned
// traces must not be mutated.
type TraceSource interface {
	// Len returns the number of threads.
	Len() int
	// At returns thread i's trace. The pointer is borrowed: it stays valid
	// for the duration of the simulation and must be treated as read-only.
	At(i int) *ThreadTrace
}

// TraceSlice adapts a []ThreadTrace to the TraceSource interface.
type TraceSlice []ThreadTrace

// Len implements TraceSource.
func (s TraceSlice) Len() int { return len(s) }

// At implements TraceSource.
func (s TraceSlice) At(i int) *ThreadTrace { return &s[i] }

// Instructions returns the number of SM instructions the thread issues:
// every op is one instruction except OpCompute which accounts for Arg.
// Work done inside the RT unit is accelerator work, not SM instructions,
// matching how Vulkan-Sim attributes instruction counts.
func (t *ThreadTrace) Instructions() uint64 {
	var n uint64
	for _, op := range t.Ops {
		if op.Kind == OpCompute {
			n += uint64(op.Arg)
		} else {
			n++
		}
	}
	return n
}

// TraversalWork returns the total node visits and triangle tests across the
// thread's rays — the scalar the heatmap is built from.
func (t *ThreadTrace) TraversalWork() (nodes, triTests uint64) {
	for i := range t.Rays {
		words := t.RayWords(i)
		prev := int32(0)
		for j := 0; j < len(words); nodes++ {
			var tt int32
			prev, tt, j = bvh.DecodeStep(words, j, prev)
			triTests += uint64(tt)
		}
	}
	return nodes, triTests
}

// FilteredTrace returns the trace executed by a pixel that the Zatel filter
// mask excludes: the two-instruction prologue of Listing 1 (the injected
// filter_shader check plus the early return), touching no memory.
func FilteredTrace() ThreadTrace {
	return ThreadTrace{Ops: []Op{{Kind: OpCompute, Arg: 2}}}
}

// Instruction-cost constants for the synthetic ray-generation shader. They
// approximate the per-phase ALU work of a small Vulkan path tracer.
const (
	instrsRayGen    = 8 // camera ray setup
	instrsMissShade = 2 // sky colour
	instrsHitShade  = 6 // normal, light vector, BRDF
	instrsPostLight = 4 // light accumulation after the shadow ray
	instrsMirror    = 3 // reflection direction
	instrsBounce    = 5 // hemisphere sample
)
