package rt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"zatel/internal/bvh"
	"zatel/internal/scene"
)

// workloadGoldenPath pins step 1 byte for byte: for every library scene at
// 48² and 128², spp 1, the SHA-256 of the encoded rt.workload/v1 bytes, of
// the Cost float64 bits and of the BVH node array plus TriIndex of the tree
// bvh.Build makes for the scene (the workload does not keep it). Builder and
// traversal optimisations must leave every digest unchanged; regenerate only
// when the functional trace intentionally changes, via
//
//	ZATEL_UPDATE_GOLDEN=1 go test ./internal/rt -run TestWorkloadDigestGolden
const workloadGoldenPath = "testdata/workload_digests.json"

// workloadDigest is one frame's pinned digests.
type workloadDigest struct {
	Workload string `json:"workload"`
	Cost     string `json:"cost"`
	BVH      string `json:"bvh"`
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// digestWorkload computes w's pinned digests, building w's scene and its
// BVH afresh for the tree digest (the workload keeps only the scene's name).
func digestWorkload(t testing.TB, w *Workload) workloadDigest {
	t.Helper()
	enc, err := workloadCodec{}.Encode(w)
	if err != nil {
		t.Fatal(err)
	}
	s, err := scene.ByName(w.Scene)
	if err != nil {
		t.Fatal(err)
	}
	accel, err := bvh.Build(s, bvh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cost := make([]byte, 0, 8*len(w.Cost))
	for _, c := range w.Cost {
		cost = binary.LittleEndian.AppendUint64(cost, math.Float64bits(c))
	}
	return workloadDigest{Workload: sha(enc), Cost: sha(cost), BVH: sha(encodeBVH(accel))}
}

// encodeBVH serialises every field of every node, then TriIndex.
func encodeBVH(b *bvh.BVH) []byte {
	le := binary.LittleEndian
	out := make([]byte, 0, 36*len(b.Nodes)+4*len(b.TriIndex))
	for _, n := range b.Nodes {
		for _, f := range [...]float32{n.Bounds.Lo.X, n.Bounds.Lo.Y, n.Bounds.Lo.Z, n.Bounds.Hi.X, n.Bounds.Hi.Y, n.Bounds.Hi.Z} {
			out = le.AppendUint32(out, math.Float32bits(f))
		}
		out = le.AppendUint32(out, uint32(n.Right))
		out = le.AppendUint32(out, uint32(n.FirstTri))
		out = le.AppendUint32(out, uint32(n.TriCount))
	}
	for _, ti := range b.TriIndex {
		out = le.AppendUint32(out, uint32(ti))
	}
	return out
}

// TestWorkloadDigestGolden rebuilds every golden frame (uncached, so the
// artifact store plays no part) and compares its digests to the frozen ones.
func TestWorkloadDigestGolden(t *testing.T) {
	got := make(map[string]workloadDigest)
	for _, name := range scene.Names() {
		s, err := scene.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []int{48, 128} {
			w, err := BuildWorkload(s, res, res, 1)
			if err != nil {
				t.Fatalf("%s %d²: %v", name, res, err)
			}
			got[fmt.Sprintf("%s/%dx%d/spp1", name, res, res)] = digestWorkload(t, w)
		}
	}

	if os.Getenv("ZATEL_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(workloadGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workloadGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s with %d frames", workloadGoldenPath, len(got))
		return
	}

	data, err := os.ReadFile(workloadGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with ZATEL_UPDATE_GOLDEN=1 go test ./internal/rt -run TestWorkloadDigestGolden)", err)
	}
	var want map[string]workloadDigest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", workloadGoldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d frames, built %d", workloadGoldenPath, len(want), len(got))
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: missing from %s", key, workloadGoldenPath)
			continue
		}
		if g != w {
			t.Errorf("%s: digests diverged from the frozen step-1 output:\ngot  %+v\nwant %+v", key, g, w)
		}
	}
}
