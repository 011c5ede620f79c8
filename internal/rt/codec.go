package rt

import (
	"encoding/binary"
	"fmt"
	"math"

	"zatel/internal/bvh"
	"zatel/internal/scene"
	"zatel/internal/store"
)

// WorkloadCodecKind is the versioned disk-format tag of serialized
// workload traces — the seed of the capture/replay artifact format the
// ROADMAP describes. Bump the suffix on any layout change; old entries
// then read as unknown-kind misses and are rebuilt, never misdecoded.
const WorkloadCodecKind = "rt.workload/v1"

// workloadCodec serializes rt.Workload arena traces for the artifact
// store's disk tier.
//
// Payload layout (little endian):
//
//	u32 sceneNameLen, sceneName
//	u32 width, u32 height, u32 spp
//	f64 cost[width*height]
//	u64 nOps, u64 nRays, u64 nSteps          (arena totals)
//	u32 opCount, u32 rayCount  per pixel     (trace boundaries)
//	u8  rayKind, u32 stepCount per ray       (ray boundaries)
//	u8  opKind[nOps], u32 opArg[nOps]        (ops arena, split SoA)
//	u32 step[nSteps]                         (PackStep form)
//
// The scene is recorded by its library name only: a workload keeps no
// geometry, so decode checks the name, builds neither scene nor BVH, and
// lays the traces out in one fresh arena, the layout BuildWorkload's
// compaction produces (the arena splits ops the same way). Steps are
// counted and stored in their full PackStep form, not in the resident step
// words: encode expands each ray's words and decode codes them again, so
// the bytes do not depend on the resident layout.
type workloadCodec struct{}

func init() { store.RegisterCodec(workloadCodec{}) }

// Kind implements store.Codec.
func (workloadCodec) Kind() string { return WorkloadCodecKind }

// Encodes implements store.Codec.
func (workloadCodec) Encodes(v any) bool {
	_, ok := v.(*Workload)
	return ok
}

// Encode implements store.Codec. It walks the traces, not their arena,
// so hand-assembled workloads serialize the same way.
func (workloadCodec) Encode(v any) ([]byte, error) {
	w, ok := v.(*Workload)
	if !ok {
		return nil, fmt.Errorf("rt: codec cannot encode %T", v)
	}
	if !scene.Known(w.Scene) {
		return nil, fmt.Errorf("rt: workload scene %q is not in the library", w.Scene)
	}
	if len(w.Traces) != w.Width*w.Height || len(w.Cost) != w.Width*w.Height {
		return nil, fmt.Errorf("rt: workload shape %dx%d disagrees with %d traces / %d costs",
			w.Width, w.Height, len(w.Traces), len(w.Cost))
	}
	var nOps, nRays, nSteps int
	for _, t := range w.Traces {
		nOps += t.NumOps()
		nRays += t.NumRays()
	}
	// Each ray's step count, found by decoding its words.
	rayLens := make([]uint32, 0, nRays)
	for _, t := range w.Traces {
		for j := range t.NumRays() {
			words, n := t.RayWords(j), uint32(0)
			for k := 0; k < len(words); n++ {
				_, _, k = bvh.DecodeStep(words, k, 0)
			}
			rayLens = append(rayLens, n)
			nSteps += int(n)
		}
	}

	size := 4 + len(w.Scene) + 3*4 + // name + dims
		len(w.Cost)*8 + 3*8 + // cost + totals
		len(w.Traces)*8 + nRays*5 + // boundaries
		nOps*5 + nSteps*4 // arenas
	buf := make([]byte, 0, size)
	le := binary.LittleEndian

	buf = le.AppendUint32(buf, uint32(len(w.Scene)))
	buf = append(buf, w.Scene...)
	buf = le.AppendUint32(buf, uint32(w.Width))
	buf = le.AppendUint32(buf, uint32(w.Height))
	buf = le.AppendUint32(buf, uint32(w.SPP))
	for _, c := range w.Cost {
		buf = le.AppendUint64(buf, math.Float64bits(c))
	}
	buf = le.AppendUint64(buf, uint64(nOps))
	buf = le.AppendUint64(buf, uint64(nRays))
	buf = le.AppendUint64(buf, uint64(nSteps))
	for _, t := range w.Traces {
		buf = le.AppendUint32(buf, uint32(t.NumOps()))
		buf = le.AppendUint32(buf, uint32(t.NumRays()))
	}
	ray := 0
	for _, t := range w.Traces {
		_, _, rays, _ := t.parts()
		for _, r := range rays {
			buf = append(buf, byte(r.Kind))
			buf = le.AppendUint32(buf, rayLens[ray])
			ray++
		}
	}
	for _, t := range w.Traces {
		kinds, _, _, _ := t.parts()
		for _, k := range kinds {
			buf = append(buf, byte(k))
		}
	}
	for _, t := range w.Traces {
		_, args, _, _ := t.parts()
		for _, a := range args {
			buf = le.AppendUint32(buf, a)
		}
	}
	for _, t := range w.Traces {
		for j := range t.NumRays() {
			words, prev := t.RayWords(j), int32(0)
			for k := 0; k < len(words); {
				var tests int32
				prev, tests, k = bvh.DecodeStep(words, k, prev)
				buf = le.AppendUint32(buf, PackStep(prev, tests))
			}
		}
	}
	return buf, nil
}

// wlReader is a bounds-checked little-endian cursor: every short read is
// an error, so a payload that passed the disk tier's checksum but was
// written corrupt still fails loudly into the quarantine path.
type wlReader struct {
	data []byte
	off  int
}

func (r *wlReader) need(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.data) || r.off+n < r.off {
		return nil, fmt.Errorf("rt: workload payload truncated at offset %d (need %d of %d)",
			r.off, n, len(r.data))
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *wlReader) u8() (byte, error) {
	b, err := r.need(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *wlReader) u32() (uint32, error) {
	b, err := r.need(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *wlReader) u64() (uint64, error) {
	b, err := r.need(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// wlMaxDim bounds each header dimension, so the pixel count cannot
// overflow; Decode bounds the count itself by the payload's length.
const wlMaxDim = 1 << 16

// Decode implements store.Codec: it parses the payload, checks the scene
// name against the library, and lays every trace out in one exactly sized
// arena, the layout BuildWorkload's compaction produces. Every trace op
// must name a ray of its own pixel.
func (workloadCodec) Decode(data []byte) (any, int64, error) {
	r := &wlReader{data: data}
	nameLen, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	nameBytes, err := r.need(int(nameLen))
	if err != nil {
		return nil, 0, err
	}
	name := string(nameBytes)
	width, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	height, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	spp, err := r.u32()
	if err != nil {
		return nil, 0, err
	}
	if width == 0 || height == 0 || spp == 0 || width > wlMaxDim || height > wlMaxDim {
		return nil, 0, fmt.Errorf("rt: workload dims %dx%d spp=%d out of range", width, height, spp)
	}
	pixels := int(width) * int(height)
	// Every pixel carries its cost (8 bytes) and its op and ray counts (4
	// each). A header that asks for more pixels than the payload holds is
	// rejected before anything is allocated for them: a small frame from a
	// peer must not make the decoder allocate gigabytes.
	if uint64(pixels)*16 > uint64(len(data)-r.off) {
		return nil, 0, fmt.Errorf("rt: workload of %dx%d pixels exceeds its %d-byte payload", width, height, len(data))
	}

	if !scene.Known(name) {
		return nil, 0, fmt.Errorf("rt: workload scene %q is not in the library", name)
	}

	cost := make([]float64, pixels)
	for i := range cost {
		bits, err := r.u64()
		if err != nil {
			return nil, 0, err
		}
		cost[i] = math.Float64frombits(bits)
	}

	nOps64, err := r.u64()
	if err != nil {
		return nil, 0, err
	}
	nRays64, err := r.u64()
	if err != nil {
		return nil, 0, err
	}
	nSteps64, err := r.u64()
	if err != nil {
		return nil, 0, err
	}
	// The payload must hold every declared element; this rejects absurd
	// totals before allocation. Each total is bounded on its own first, so
	// the sum cannot wrap.
	limit := uint64(len(data))
	if nOps64 > limit/5 || nRays64 > limit/5 || nSteps64 > limit/4 ||
		nOps64*5+nRays64*5+nSteps64*4 > limit ||
		nOps64 > math.MaxUint32 || nRays64 > math.MaxUint32 {
		return nil, 0, fmt.Errorf("rt: workload totals (%d ops, %d rays, %d steps) exceed payload", nOps64, nRays64, nSteps64)
	}
	nOps, nRays, nSteps := int(nOps64), int(nRays64), int(nSteps64)

	opCounts := make([]uint32, pixels)
	rayCounts := make([]uint32, pixels)
	var sumOps, sumRays uint64
	for i := 0; i < pixels; i++ {
		if opCounts[i], err = r.u32(); err != nil {
			return nil, 0, err
		}
		if rayCounts[i], err = r.u32(); err != nil {
			return nil, 0, err
		}
		sumOps += uint64(opCounts[i])
		sumRays += uint64(rayCounts[i])
	}
	if sumOps != nOps64 || sumRays != nRays64 {
		return nil, 0, fmt.Errorf("rt: trace boundaries (%d ops, %d rays) disagree with totals (%d, %d)",
			sumOps, sumRays, nOps64, nRays64)
	}

	a := &arena{
		offs:  make([]traceOffs, pixels+1),
		kinds: make([]OpKind, nOps),
		args:  make([]uint32, nOps),
		rays:  make([]RayTrace, nRays),
	}
	stepCounts := make([]uint32, nRays)
	var sumSteps uint64
	for i := 0; i < nRays; i++ {
		kind, err := r.u8()
		if err != nil {
			return nil, 0, err
		}
		if RayKind(kind) > RayBounce {
			return nil, 0, fmt.Errorf("rt: ray %d has unknown kind %d", i, kind)
		}
		a.rays[i].Kind = RayKind(kind)
		if stepCounts[i], err = r.u32(); err != nil {
			return nil, 0, err
		}
		sumSteps += uint64(stepCounts[i])
	}
	if sumSteps != nSteps64 {
		return nil, 0, fmt.Errorf("rt: ray boundaries (%d steps) disagree with total %d", sumSteps, nSteps64)
	}

	for i := 0; i < nOps; i++ {
		kind, err := r.u8()
		if err != nil {
			return nil, 0, err
		}
		if OpKind(kind) > OpTrace {
			return nil, 0, fmt.Errorf("rt: op %d has unknown kind %d", i, kind)
		}
		a.kinds[i] = OpKind(kind)
	}
	for i := 0; i < nOps; i++ {
		if a.args[i], err = r.u32(); err != nil {
			return nil, 0, err
		}
	}
	packed, err := r.need(nSteps * 4)
	if err != nil {
		return nil, 0, err
	}
	if r.off != len(data) {
		return nil, 0, fmt.Errorf("rt: %d trailing bytes after workload payload", len(data)-r.off)
	}
	// Size the step-word array exactly, so that SizeBytes stays exact and
	// the codes below never reallocate it.
	nWords, off := 0, 0
	for _, n := range stepCounts {
		prev := int32(0)
		for k := uint32(0); k < n; k++ {
			node, tests := UnpackStep(binary.LittleEndian.Uint32(packed[off:]))
			nWords += bvh.StepWords(prev, node, tests)
			prev, off = node, off+4
		}
	}
	if nWords > math.MaxUint32 {
		return nil, 0, fmt.Errorf("rt: %d step words exceed a trace arena", nWords)
	}
	a.words = make([]uint16, 0, nWords)

	// Lay the traces out in the arena, exactly as BuildWorkload's
	// compaction does: each ray's steps are coded into words, its end
	// offset counted within its trace's words.
	w := &Workload{
		Scene:  name,
		Width:  int(width),
		Height: int(height),
		SPP:    int(spp),
		Traces: make([]ThreadTrace, pixels),
		Cost:   cost,
	}
	var end traceOffs
	off = 0
	for i := 0; i < pixels; i++ {
		start := end
		end.ops += opCounts[i]
		end.rays += rayCounts[i]
		for k, kind := range a.kinds[start.ops:end.ops] {
			if arg := a.args[start.ops+uint32(k)]; kind == OpTrace && arg >= rayCounts[i] {
				return nil, 0, fmt.Errorf("rt: pixel %d traces ray %d of %d", i, arg, rayCounts[i])
			}
		}
		for j := start.rays; j < end.rays; j++ {
			prev := int32(0)
			for k := uint32(0); k < stepCounts[j]; k++ {
				node, tests := UnpackStep(binary.LittleEndian.Uint32(packed[off:]))
				a.words = bvh.AppendStep(a.words, prev, node, tests)
				prev, off = node, off+4
			}
			a.rays[j].End = uint32(len(a.words)) - start.words
		}
		end.words = uint32(len(a.words))
		a.offs[i+1] = end
		w.Traces[i] = ThreadTrace{a: a, i: i}
	}
	return w, w.SizeBytes(), nil
}
