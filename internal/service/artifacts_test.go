package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"testing"

	"zatel/internal/cluster"
	"zatel/internal/rt"
	"zatel/internal/store"
)

// FuzzArtifactsPath: GET /v1/artifacts/{suffix} for any suffix. The
// handler answers 400 unless the suffix is 64 hex characters (either
// case), then 200 with the held artifact's framed bytes if the store holds
// that digest and 404 if not. It never answers anything else and never
// panics. The store holds one artifact, a 1x1 SPRNG workload under its own
// key; the committed corpus holds that digest, its upper-case form, 63
// and 65 hex characters, an empty suffix, ".." and "%2F".
func FuzzArtifactsPath(f *testing.F) {
	held := rt.WorkloadKey("SPRNG", 1, 1, 1)
	st := store.New(0)
	if _, _, err := st.GetOrBuild(context.Background(), held, func(context.Context) (any, int64, error) {
		return &rt.Workload{Scene: "SPRNG", Width: 1, Height: 1, SPP: 1,
			Traces: []rt.ThreadTrace{rt.FilteredTrace()}, Cost: []float64{0}}, 0, nil
	}); err != nil {
		f.Fatal(err)
	}
	want, ok := st.Export(held)
	if !ok {
		f.Fatal("the store does not export its held artifact")
	}
	s := New(Config{Store: st})
	f.Add(held.String())
	f.Fuzz(func(t *testing.T, suffix string) {
		r := httptest.NewRequest(http.MethodGet, cluster.ArtifactsPath, nil)
		r.URL.Path = cluster.ArtifactsPath + suffix
		w := httptest.NewRecorder()
		s.handleArtifacts(w, r)

		code := http.StatusBadRequest
		if raw, err := hex.DecodeString(suffix); err == nil && len(raw) == len(held) {
			code = http.StatusNotFound
			if store.Digest(raw) == held {
				code = http.StatusOK
			}
		}
		if w.Code != code {
			t.Fatalf("suffix %q: answered %d, want %d", suffix, w.Code, code)
		}
		if code == http.StatusOK && !bytes.Equal(w.Body.Bytes(), want) {
			t.Fatalf("suffix %q: served %d bytes that are not the held artifact's %d", suffix, w.Body.Len(), len(want))
		}
	})
}
