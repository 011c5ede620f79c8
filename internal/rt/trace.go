// Package rt is the functional ray tracer. It plays the role Vulkan-Sim's
// functional mode (or a hardware GPU) plays in the paper: for every pixel it
// path-traces the scene once, and while doing so records the exact sequence
// of instructions, memory accesses and BVH traversal steps the pixel's
// thread would execute. The cycle-level GPU model (internal/gpu) then
// replays these traces under a particular hardware configuration.
package rt

import (
	"fmt"
	"math"
	"unsafe"

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

// Op is one thread-trace operation: the value the trace constructor takes
// and ThreadTrace.Op returns. An arena holds ops split by field, a kind
// byte and a 32-bit argument, so a resident op takes 5 bytes.
type Op struct {
	Kind OpKind
	// Arg is the instruction count (OpCompute), byte address
	// (OpLoad/OpStore) or ray index (OpTrace).
	Arg uint32
}

// maxNodeIndex mirrors the packed-step capacity. Both step encodings live
// in internal/bvh so traversal can append step words directly into the
// tracer's step buffer. The full PackStep form is re-exported here: it is
// the form the disk format stores and NewTrace takes.
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
// step words end among its trace's step words. A ray's words begin where
// the previous ray's end (at 0 for the first ray), so a ray costs 8 bytes
// and no slice header of its own.
type RayTrace struct {
	Kind RayKind
	// End is the offset just past the ray's last word among its trace's
	// step words.
	End uint32
}

// arena holds the traces of one workload (or one hand-assembled batch)
// back to back: offs[i] is where trace i's ops, rays and step words begin
// and offs[i+1] where they end, so a trace costs 12 bytes of offsets
// instead of three slice headers. Ops are split into kinds and args. An
// arena is immutable once built and every slice is exactly sized.
type arena struct {
	offs  []traceOffs
	kinds []OpKind
	args  []uint32
	rays  []RayTrace
	words []uint16
}

// traceOffs is a trace boundary in its arena's op, ray and word arrays.
type traceOffs struct{ ops, rays, words uint32 }

// sizeBytes is the arena's exact footprint.
func (a *arena) sizeBytes() int64 {
	return int64(unsafe.Sizeof(*a)) +
		int64(cap(a.offs))*int64(unsafe.Sizeof(traceOffs{})) +
		int64(cap(a.kinds)) + int64(cap(a.args))*4 +
		int64(cap(a.rays))*int64(unsafe.Sizeof(RayTrace{})) +
		int64(cap(a.words))*2
}

// ThreadTrace is the full recorded execution of one pixel's thread: a flat
// operation list referencing the rays it traced, and the per-node
// traversal steps of all those rays back to back, as 16-bit step words
// (bvh.AppendStep): each ray's steps are coded against its own previous
// node, so a ray's words decode on their own.
//
// A ThreadTrace is a 16-byte handle, an arena and a trace index; the
// arena holds the contents. Traces come from BuildWorkload, the
// rt.workload/v1 decoder, NewTrace or FilteredTrace. The zero value is
// the empty trace: no ops, no rays.
type ThreadTrace struct {
	a *arena
	i int
}

// parts returns views of the trace's ops (split into kinds and args), rays
// and step words.
func (t ThreadTrace) parts() (kinds []OpKind, args []uint32, rays []RayTrace, words []uint16) {
	if t.a == nil {
		return nil, nil, nil, nil
	}
	lo, hi := t.a.offs[t.i], t.a.offs[t.i+1]
	return t.a.kinds[lo.ops:hi.ops], t.a.args[lo.ops:hi.ops],
		t.a.rays[lo.rays:hi.rays], t.a.words[lo.words:hi.words:hi.words]
}

// NumOps returns the number of ops.
func (t ThreadTrace) NumOps() int {
	kinds, _, _, _ := t.parts()
	return len(kinds)
}

// Op returns op i.
func (t ThreadTrace) Op(i int) Op {
	kinds, args, _, _ := t.parts()
	return Op{Kind: kinds[i], Arg: args[i]}
}

// NumRays returns the number of rays traced.
func (t ThreadTrace) NumRays() int {
	_, _, rays, _ := t.parts()
	return len(rays)
}

// RayWords returns ray i's step words, a read-only view into the arena.
// Decode them in order with bvh.DecodeStep, starting from node 0.
func (t ThreadTrace) RayWords(i int) []uint16 {
	_, _, rays, words := t.parts()
	return rayWords(rays, words, i)
}

// rayWords returns ray i's words, given a trace's rays and step words.
func rayWords(rays []RayTrace, words []uint16, i int) []uint16 {
	var start uint32
	if i > 0 {
		start = rays[i-1].End
	}
	end := rays[i].End
	return words[start:end:end]
}

// RaySteps is one ray of a hand-assembled trace: its kind and its
// traversal steps in PackStep form.
type RaySteps struct {
	Kind  RayKind
	Steps []uint32
}

// NewTrace assembles a trace from its ops and rays into an exactly sized
// arena of its own. OpTrace args index rays. It is the constructor for
// traces that no workload build records: tests, examples and the filtered
// prologue.
func NewTrace(ops []Op, rays ...RaySteps) ThreadTrace {
	var words []uint16
	recs := make([]RayTrace, len(rays))
	for i, r := range rays {
		prev := int32(0)
		for _, s := range r.Steps {
			node, tests := UnpackStep(s)
			words = bvh.AppendStep(words, prev, node, tests)
			prev = node
		}
		recs[i] = RayTrace{Kind: r.Kind, End: uint32(len(words))}
	}
	traces, err := newArena([]tracePart{{ops, recs, words}})
	if err != nil {
		panic(err)
	}
	return traces[0]
}

// tracePart is one trace's contents before they move into an arena.
type tracePart struct {
	ops   []Op
	rays  []RayTrace
	words []uint16
}

// newArena lays parts out back to back in one exactly sized arena and
// returns a handle to each. It fails if the totals overflow the arena's
// 32-bit offsets.
func newArena(parts []tracePart) ([]ThreadTrace, error) {
	var nOps, nRays, nWords uint64
	for _, p := range parts {
		nOps += uint64(len(p.ops))
		nRays += uint64(len(p.rays))
		nWords += uint64(len(p.words))
	}
	if nOps > math.MaxUint32 || nRays > math.MaxUint32 || nWords > math.MaxUint32 {
		return nil, fmt.Errorf("rt: %d ops, %d rays, %d step words exceed a trace arena", nOps, nRays, nWords)
	}
	a := &arena{
		offs:  make([]traceOffs, len(parts)+1),
		kinds: make([]OpKind, 0, nOps),
		args:  make([]uint32, 0, nOps),
		rays:  make([]RayTrace, 0, nRays),
		words: make([]uint16, 0, nWords),
	}
	traces := make([]ThreadTrace, len(parts))
	for i, p := range parts {
		for _, op := range p.ops {
			a.kinds = append(a.kinds, op.Kind)
			a.args = append(a.args, op.Arg)
		}
		a.rays = append(a.rays, p.rays...)
		a.words = append(a.words, p.words...)
		a.offs[i+1] = traceOffs{uint32(len(a.kinds)), uint32(len(a.rays)), uint32(len(a.words))}
		traces[i] = ThreadTrace{a: a, i: i}
	}
	return traces, nil
}

// Cursor replays one trace's ops in order. It is what the simulator keeps
// per thread: the trace's arena and offsets resolved once, so an op read
// is one index into the arena's kinds or args.
type Cursor struct {
	a    *arena
	op   uint32 // arena index of the next op
	end  uint32 // arena index past the trace's last op
	ray  uint32 // arena index of the trace's first ray
	word uint32 // arena index of the trace's first step word
}

// Cursor returns a cursor at the trace's first op.
func (t ThreadTrace) Cursor() Cursor {
	if t.a == nil {
		return Cursor{}
	}
	lo, hi := t.a.offs[t.i], t.a.offs[t.i+1]
	return Cursor{a: t.a, op: lo.ops, end: hi.ops, ray: lo.rays, word: lo.words}
}

// Done reports whether every op has been replayed.
func (c *Cursor) Done() bool { return c.op >= c.end }

// Kind returns the current op's kind.
func (c *Cursor) Kind() OpKind { return c.a.kinds[c.op] }

// Arg returns the current op's argument.
func (c *Cursor) Arg() uint32 { return c.a.args[c.op] }

// Advance moves to the next op.
func (c *Cursor) Advance() { c.op++ }

// RayWords returns the step words of the trace's ray i, as
// ThreadTrace.RayWords does.
func (c *Cursor) RayWords(i uint32) []uint16 {
	r := c.ray + i
	start := c.word
	if i > 0 {
		start += c.a.rays[r-1].End
	}
	end := c.word + c.a.rays[r].End
	return c.a.words[start:end:end]
}

// TraceSource supplies threads to a simulation in warp order without
// requiring the caller to materialise a contiguous []ThreadTrace. Zatel's
// group runs mix selected pixels (traces read straight from the workload)
// with filtered ones (a single shared prologue trace), so a view costs
// nothing where a copy used to cost one slice per simulator call.
// Implementations must be safe for concurrent readers.
type TraceSource interface {
	// Len returns the number of threads.
	Len() int
	// At returns thread i's trace. The pointer is borrowed: it stays valid
	// for the duration of the simulation.
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
func (t ThreadTrace) Instructions() uint64 {
	kinds, args, _, _ := t.parts()
	var n uint64
	for i, k := range kinds {
		if k == OpCompute {
			n += uint64(args[i])
		} else {
			n++
		}
	}
	return n
}

// TraversalWork returns the total node visits and triangle tests across the
// thread's rays — the scalar the heatmap is built from.
func (t ThreadTrace) TraversalWork() (nodes, triTests uint64) {
	_, _, rays, words := t.parts()
	for i := range rays {
		words := rayWords(rays, words, i)
		prev := int32(0)
		for j := 0; j < len(words); nodes++ {
			var tt int32
			prev, tt, j = bvh.DecodeStep(words, j, prev)
			triTests += uint64(tt)
		}
	}
	return nodes, triTests
}

// filtered is the one arena every FilteredTrace handle shares.
var filtered = NewTrace([]Op{{Kind: OpCompute, Arg: 2}})

// FilteredTrace returns the trace executed by a pixel that the Zatel filter
// mask excludes: the two-instruction prologue of Listing 1 (the injected
// filter_shader check plus the early return), touching no memory.
func FilteredTrace() ThreadTrace { return filtered }

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
