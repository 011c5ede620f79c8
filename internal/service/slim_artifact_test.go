package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"zatel/internal/cluster"
	"zatel/internal/core"
	"zatel/internal/store"
)

// predictedJSON returns the bytes of a predict response's "predicted"
// object exactly as the server rendered them.
func predictedJSON(t *testing.T, raw string) string {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal([]byte(raw), &fields); err != nil {
		t.Fatalf("decode response: %v\n%s", err, raw)
	}
	if len(fields["predicted"]) == 0 {
		t.Fatalf("response has no predicted object:\n%s", raw)
	}
	return string(fields["predicted"])
}

// cachedResult is the value the store holds for key, without building.
func cachedResult(t *testing.T, st *store.Store, key store.Digest) *core.Result {
	t.Helper()
	v, _, ok := st.Get(context.Background(), key, store.Chain)
	if !ok {
		t.Fatalf("store holds nothing under %s", key.Short())
	}
	return v.(*core.Result)
}

// diskServer opens a store with a disk tier on dir and serves it.
func diskServer(t *testing.T, dir string) (*Server, string, *store.Disk) {
	t.Helper()
	d, err := store.OpenDisk(store.DiskConfig{Dir: dir})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	st := store.New(0)
	st.AttachDisk(d)
	srv, ts := newTestServer(t, Config{Store: st})
	return srv, ts.URL, d
}

const slimBody = `{"scene":"SPRNG","config":"mobile","width":64,"height":64,"spp":1}`

func slimKey(t *testing.T, srv *Server) (core.Options, store.Digest) {
	t.Helper()
	opts, err := srv.optionsFor(&PredictRequest{Scene: "SPRNG", Width: 64, Height: 64, SPP: 1})
	if err != nil {
		t.Fatal(err)
	}
	return opts, opts.CacheKey()
}

// TestCachedPredictionIsResponseSized: PredictContext hands direct callers
// the quantized heatmap, but the prediction the service caches, persists
// and serves to peers holds none — the heatmap is the store's own quant/v1
// artifact — and every tier still renders the response the build rendered.
func TestCachedPredictionIsResponseSized(t *testing.T) {
	dir := t.TempDir()
	srv, url, d := diskServer(t, dir)
	opts, key := slimKey(t, srv)

	resp, cold, rawCold := postPredict(t, url, slimBody)
	if resp.StatusCode != http.StatusOK || cold.Cache != "miss" || cold.Key != key.String() {
		t.Fatalf("cold predict: status %d cache %q key %s", resp.StatusCode, cold.Cache, cold.Key)
	}
	want := predictedJSON(t, rawCold)

	if fresh, err := core.Predict(opts); err != nil || fresh.Quantized == nil {
		t.Fatalf("direct PredictContext: err %v, Quantized %v — direct callers must keep the heatmap", err, fresh)
	}
	if r := cachedResult(t, srv.st, key); r.Quantized != nil {
		t.Error("the memory tier retains a per-prediction heatmap copy")
	}

	// What a peer would fetch is the framed v2 payload: response-sized.
	aresp, err := http.Get(url + cluster.ArtifactsPath + key.String())
	if err != nil {
		t.Fatalf("GET artifact: %v", err)
	}
	framed, _ := io.ReadAll(aresp.Body)
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusOK || len(framed) >= 4<<10 {
		t.Errorf("artifact: status %d, %d bytes, want 200 and under 4 KiB", aresp.StatusCode, len(framed))
	}
	if _, _, kind, err := store.DecodeFramed(framed); err != nil || kind != core.PredictCodecKind {
		t.Errorf("artifact frame: kind %q err %v, want %s", kind, err, core.PredictCodecKind)
	}

	// Restart on the same directory: a disk hit, same response, no heatmap.
	d.Close()
	srv2, url2, _ := diskServer(t, dir)
	resp, warm, rawWarm := postPredict(t, url2, slimBody)
	if resp.StatusCode != http.StatusOK || warm.Cache != "disk" {
		t.Fatalf("post-restart predict: status %d cache %q, want disk", resp.StatusCode, warm.Cache)
	}
	if got := predictedJSON(t, rawWarm); got != want {
		t.Errorf("disk hit rendered a different predicted object:\n%s\nvs miss:\n%s", got, want)
	}
	if r := cachedResult(t, srv2.st, key); r.Quantized != nil {
		t.Error("a disk hit decoded a heatmap")
	}
}

// TestOldPredictEntryRebuildsInPlace: a core.predict/v1 entry left in
// -store-dir by an older binary is a format this binary does not speak,
// not corruption: it reads as a miss, is never quarantined, and the
// rebuild lands a v2 entry under the same name.
func TestOldPredictEntryRebuildsInPlace(t *testing.T) {
	dir := t.TempDir()
	srv, url, d := diskServer(t, dir)
	_, key := slimKey(t, srv)
	if _, pr, _ := postPredict(t, url, slimBody); pr.Cache != "miss" {
		t.Fatalf("seeding predict: cache %q", pr.Cache)
	}
	d.Close()

	// Re-tag the persisted entry as v1. The frame's checksum covers the
	// payload only, and the payload of an unknown kind is never decoded,
	// so this is what the scan and the first read see of a real v1 file.
	path := filepath.Join(dir, key.String()+".art")
	entry, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("persisted prediction: %v", err)
	}
	const oldKind = "core.predict/v1"
	if len(oldKind) != len(core.PredictCodecKind) || !bytes.Contains(entry, []byte(core.PredictCodecKind)) {
		t.Fatalf("entry does not carry kind %s", core.PredictCodecKind)
	}
	old := bytes.Replace(entry, []byte(core.PredictCodecKind), []byte(oldKind), 1)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	_, url2, d2 := diskServer(t, dir)
	resp, pr, raw := postPredict(t, url2, slimBody)
	if resp.StatusCode != http.StatusOK || pr.Cache != "miss" {
		t.Fatalf("predict over a v1 entry: status %d cache %q, want a rebuilding miss\n%s", resp.StatusCode, pr.Cache, raw)
	}
	d2.Flush()
	if bad, _ := filepath.Glob(filepath.Join(dir, "*.bad*")); len(bad) != 0 {
		t.Errorf("old-format entry was quarantined: %v", bad)
	}
	rebuilt, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("rebuilt entry: %v", err)
	}
	if _, _, kind, err := store.DecodeFramed(rebuilt); err != nil || kind != core.PredictCodecKind {
		t.Errorf("rebuilt entry: kind %q err %v, want %s", kind, err, core.PredictCodecKind)
	}
}
