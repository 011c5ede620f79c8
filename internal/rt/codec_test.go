package rt

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"zatel/internal/scene"
	"zatel/internal/store"
)

func buildCodecWorkload(t *testing.T) *Workload {
	t.Helper()
	s, err := scene.ByName("SPRNG")
	if err != nil {
		t.Fatalf("scene: %v", err)
	}
	w, err := BuildWorkload(s, 16, 16, 1)
	if err != nil {
		t.Fatalf("BuildWorkload: %v", err)
	}
	return w
}

func workloadsEqual(t *testing.T, a, b *Workload) {
	t.Helper()
	if a.Width != b.Width || a.Height != b.Height || a.SPP != b.SPP {
		t.Fatalf("shape mismatch: %dx%d spp=%d vs %dx%d spp=%d",
			a.Width, a.Height, a.SPP, b.Width, b.Height, b.SPP)
	}
	if a.Scene != b.Scene {
		t.Fatalf("scene mismatch: %q vs %q", a.Scene, b.Scene)
	}
	if len(a.Cost) != len(b.Cost) {
		t.Fatalf("cost length mismatch: %d vs %d", len(a.Cost), len(b.Cost))
	}
	for i := range a.Cost {
		if a.Cost[i] != b.Cost[i] {
			t.Fatalf("cost[%d] mismatch: %v vs %v", i, a.Cost[i], b.Cost[i])
		}
	}
	if len(a.Traces) != len(b.Traces) {
		t.Fatalf("trace count mismatch: %d vs %d", len(a.Traces), len(b.Traces))
	}
	for i := range a.Traces {
		ta, tb := a.Traces[i], b.Traces[i]
		if ta.NumOps() != tb.NumOps() || ta.NumRays() != tb.NumRays() {
			t.Fatalf("trace %d shape mismatch: %d/%d ops, %d/%d rays",
				i, ta.NumOps(), tb.NumOps(), ta.NumRays(), tb.NumRays())
		}
		for j := range ta.NumOps() {
			if ta.Op(j) != tb.Op(j) {
				t.Fatalf("trace %d op %d mismatch: %+v vs %+v", i, j, ta.Op(j), tb.Op(j))
			}
		}
		_, _, raysA, _ := ta.parts()
		_, _, raysB, _ := tb.parts()
		for j := range raysA {
			if raysA[j] != raysB[j] {
				t.Fatalf("trace %d ray %d mismatch: %+v vs %+v", i, j, raysA[j], raysB[j])
			}
			if !slices.Equal(ta.RayWords(j), tb.RayWords(j)) {
				t.Fatalf("trace %d ray %d step words mismatch", i, j)
			}
		}
	}
}

func TestWorkloadCodecRoundTrip(t *testing.T) {
	w := buildCodecWorkload(t)
	c := workloadCodec{}
	if !c.Encodes(w) {
		t.Fatal("Encodes(*Workload) = false")
	}
	data, err := c.Encode(w)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	v, size, err := c.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	got := v.(*Workload)
	workloadsEqual(t, w, got)
	if size != got.SizeBytes() {
		t.Fatalf("reported size %d != SizeBytes %d", size, got.SizeBytes())
	}

	// The decoded workload must re-encode to the identical payload: the
	// format is canonical, so disk entries stay byte-stable across a
	// round trip (and therefore digest-stable).
	again, err := c.Encode(got)
	if err != nil {
		t.Fatalf("re-Encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-encoded payload differs from original")
	}
}

// TestWorkloadCodecStepsRoundTrip: arbitrary step sequences survive the
// codec, which stores them in PackStep form and holds them as step words.
// Nodes span 0…2^24−1, with runs of deltas on both sides of ±2048, and
// tests span 0…300, so PackStep's saturation at 255 is exercised. The
// payload's last 4·n bytes are exactly the n steps' PackStep values, the
// decoded words are the encoded ones, and re-encoding is byte-identical.
func TestWorkloadCodecStepsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		w := &Workload{Scene: "SPRNG", Width: 3, Height: 1, SPP: 1, Traces: make([]ThreadTrace, 3), Cost: make([]float64, 3)}
		var packed []uint32
		for i := range w.Traces {
			var ops []Op
			var rays []RaySteps
			for ray, n := 0, rng.Intn(4); ray < n; ray++ {
				steps := make([]uint32, rng.Intn(40))
				node := int32(0)
				for k := range steps {
					if rng.Intn(4) == 0 {
						node = rng.Int31n(maxNodeIndex + 1)
					} else {
						d := int32(2048 + rng.Intn(5) - 2)
						if rng.Intn(2) == 0 {
							d = -d
						}
						node = min(max(node+d*int32(rng.Intn(2))+int32(rng.Intn(64)-32), 0), maxNodeIndex)
					}
					steps[k] = PackStep(node, int32(rng.Intn(301)))
				}
				ops = append(ops, Op{Kind: OpTrace, Arg: uint32(len(rays))})
				rays = append(rays, RaySteps{Kind: RayKind(rng.Intn(3)), Steps: steps})
				packed = append(packed, steps...)
			}
			w.Traces[i] = NewTrace(ops, rays...)
		}
		c := workloadCodec{}
		data, err := c.Encode(w)
		if err != nil {
			t.Fatal(err)
		}
		tail := data[len(data)-4*len(packed):]
		for k, want := range packed {
			if got := binary.LittleEndian.Uint32(tail[4*k:]); got != want {
				t.Fatalf("trial %d: step %d encoded as %#x, want %#x", trial, k, got, want)
			}
		}
		v, _, err := c.Decode(data)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		workloadsEqual(t, w, v.(*Workload))
		again, err := c.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("trial %d: re-encoded payload differs", trial)
		}
	}
}

func TestWorkloadCodecRejectsTruncation(t *testing.T) {
	w := buildCodecWorkload(t)
	c := workloadCodec{}
	data, err := c.Encode(w)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Every strict prefix must fail loudly, never mis-decode or panic.
	for _, n := range []int{0, 3, 4, 10, len(data) / 2, len(data) - 1} {
		if _, _, err := c.Decode(data[:n]); err == nil {
			t.Fatalf("Decode of %d/%d bytes succeeded", n, len(data))
		}
	}
	// Trailing garbage is also a decode error.
	if _, _, err := c.Decode(append(append([]byte{}, data...), 0xFF)); err == nil {
		t.Fatal("Decode with trailing byte succeeded")
	}
}

func TestWorkloadCodecRejectsUnknownScene(t *testing.T) {
	w := buildCodecWorkload(t)
	c := workloadCodec{}
	data, err := c.Encode(w)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	// Corrupt the scene name in place (nameLen stays valid).
	data[4] = 'x'
	if _, _, err := c.Decode(data); err == nil || !strings.Contains(err.Error(), "not in the library") {
		t.Fatalf("Decode with unknown scene name: %v, want a scene-library error", err)
	}
}

// TestWorkloadCodecRejectsOversizedHeader: a header declaring the largest
// frame the dimension bound allows, with no pixel data behind it, is an
// error before the decoder allocates for its pixels (32 GiB of costs alone).
func TestWorkloadCodecRejectsOversizedHeader(t *testing.T) {
	var data []byte
	le := binary.LittleEndian
	data = le.AppendUint32(data, uint32(len("SPRNG")))
	data = append(data, "SPRNG"...)
	data = le.AppendUint32(data, wlMaxDim)
	data = le.AppendUint32(data, wlMaxDim)
	data = le.AppendUint32(data, 1)
	data = append(data, make([]byte, 64)...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := workloadCodec{}.Decode(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Decode of a header with no pixel data succeeded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting the header allocated %d bytes", grew)
	}
}

// TestWorkloadCodecRejectsRayIndexPastPixel: a trace op naming a ray its
// pixel did not trace passes the frame checksum (a peer computes its own)
// and every length check, and would index out of range in the simulator.
// Decode must reject it.
func TestWorkloadCodecRejectsRayIndexPastPixel(t *testing.T) {
	s, err := scene.ByName("SPRNG")
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWorkload(s, 8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := store.DecodeFramed(mustFrame(t, w)); err != nil {
		t.Fatalf("intact frame rejected: %v", err)
	}
	kinds, args, _, _ := w.Traces[0].parts()
	for i, k := range kinds {
		if k == OpTrace {
			args[i] = 999
			break
		}
	}
	if _, _, _, err := store.DecodeFramed(mustFrame(t, w)); err == nil {
		t.Fatal("frame with a trace op naming ray 999 of a pixel was accepted")
	}
}

func mustFrame(t *testing.T, w *Workload) []byte {
	t.Helper()
	data, _, err := store.EncodeFramed(w)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWorkloadSizeBytesExact: SizeBytes equals an independent count of
// what a workload holds, for a built workload and its decoded copy. The
// count walks the traces, so it also proves that every trace shares one
// arena trimmed to the traced sizes and that nothing else (no BVH) is
// charged. A trace is a 16-byte handle; its arena holds 12 bytes of
// offsets per trace (plus one leading boundary), 5 bytes per op (kind and
// argument), 8 per ray and 2 per step word.
func TestWorkloadSizeBytesExact(t *testing.T) {
	if n := unsafe.Sizeof(RayTrace{}); n > 8 {
		t.Errorf("RayTrace is %d bytes, want at most 8", n)
	}
	built := buildCodecWorkload(t)
	v, _, _, err := store.DecodeFramed(mustFrame(t, built))
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]*Workload{"built": built, "decoded": v.(*Workload)} {
		a := w.Traces[0].a
		var ops, rays, words int
		for i, tr := range w.Traces {
			if tr.a != a || tr.i != i {
				t.Fatalf("%s: trace %d is (%p, %d), want (%p, %d)", name, i, tr.a, tr.i, a, i)
			}
			ops += tr.NumOps()
			rays += tr.NumRays()
			for j := range tr.NumRays() {
				words += len(tr.RayWords(j))
			}
		}
		if cap(a.offs) != len(w.Traces)+1 || cap(a.kinds) != ops || cap(a.args) != ops ||
			cap(a.rays) != rays || cap(a.words) != words {
			t.Errorf("%s: arena capacities %d/%d/%d/%d/%d, traces hold %d traces, %d ops, %d rays, %d words",
				name, cap(a.offs), cap(a.kinds), cap(a.args), cap(a.rays), cap(a.words),
				len(w.Traces), ops, rays, words)
		}
		want := int64(unsafe.Sizeof(Workload{})) +
			int64(len(w.Traces))*16 +
			int64(len(w.Cost))*8 +
			int64(unsafe.Sizeof(arena{})) +
			int64(len(w.Traces)+1)*12 +
			int64(ops)*5 +
			int64(rays)*int64(unsafe.Sizeof(RayTrace{})) +
			int64(words)*2
		if got := w.SizeBytes(); got != want {
			t.Errorf("%s: SizeBytes = %d, independent count %d", name, got, want)
		}
	}
}

// TestTraceHandleSize pins the resident layout: a trace is a 16-byte
// handle, the simulator's per-thread cursor is at most 24 bytes, and PARK
// at 128², the frame the benchmarks replay, holds at most 360 resident
// bytes per pixel (433 when each trace carried three slice headers and
// 8-byte ops).
func TestTraceHandleSize(t *testing.T) {
	if n := unsafe.Sizeof(ThreadTrace{}); n != 16 {
		t.Errorf("ThreadTrace is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(Cursor{}); n > 24 {
		t.Errorf("Cursor is %d bytes, want at most 24", n)
	}
	s, err := scene.ByName("PARK")
	if err != nil {
		t.Fatal(err)
	}
	w, err := BuildWorkload(s, 128, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	if perPixel := float64(w.SizeBytes()) / float64(w.Pixels()); perPixel > 360 {
		t.Errorf("PARK 128² holds %.1f B/pixel, want at most 360", perPixel)
	}
}

// TestWorkloadArenaRoundTripAllScenes: every library scene at 48² goes
// through build, encode and decode. The decoded workload has the built
// one's ops, rays and step words pixel by pixel and the same SizeBytes,
// and re-encodes to the identical payload.
func TestWorkloadArenaRoundTripAllScenes(t *testing.T) {
	c := workloadCodec{}
	for _, name := range scene.Names() {
		s, err := scene.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		built, err := BuildWorkload(s, 48, 48, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := c.Encode(built)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v, size, err := c.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		decoded := v.(*Workload)
		workloadsEqual(t, built, decoded)
		if size != built.SizeBytes() || decoded.SizeBytes() != built.SizeBytes() {
			t.Errorf("%s: decoded SizeBytes %d (reported %d), built %d", name, decoded.SizeBytes(), size, built.SizeBytes())
		}
		again, err := c.Encode(decoded)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%s: re-encoded payload differs", name)
		}
	}
}

// TestWorkloadPinsNoScene: a workload keeps its scene's name, not its
// geometry. A finalizer on the scene's triangle array runs while a built
// workload and its decoded copy are both still held, and decoding builds
// no scene: it allocates far less than the scene's triangles take.
func TestWorkloadPinsNoScene(t *testing.T) {
	s, err := scene.ByName("BUNNY")
	if err != nil {
		t.Fatal(err)
	}
	sceneBytes := uint64(len(s.Tris)) * uint64(unsafe.Sizeof(s.Tris[0]))
	freed := make(chan struct{})
	runtime.SetFinalizer(&s.Tris[0], func(*scene.Triangle) { close(freed) })
	built, err := BuildWorkload(s, 8, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	s = nil
	frame := mustFrame(t, built)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v, _, _, err := store.DecodeFramed(frame)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	decoded := v.(*Workload)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= sceneBytes/4 {
		t.Errorf("decoding an 8x8 frame allocated %d bytes; the BUNNY triangles take %d", grew, sceneBytes)
	}

	deadline := time.Now().Add(2 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-freed:
			done = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("the scene's triangles stayed reachable while its workloads were held")
			}
		}
	}
	if built.Scene != "BUNNY" || decoded.Scene != "BUNNY" {
		t.Errorf("scene names %q and %q, want BUNNY", built.Scene, decoded.Scene)
	}
	runtime.KeepAlive(built)
	runtime.KeepAlive(decoded)
}
