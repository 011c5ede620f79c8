package gpu

import (
	"context"
	"testing"

	"zatel/internal/config"
	"zatel/internal/rt"
	"zatel/internal/store"
)

// TestDecodedWorkloadReplaysIdentically: a workload loaded from disk or a
// peer (its rt.workload/v1 frame decoded) simulates to the same report as
// the workload it was encoded from, on a full and a downscaled GPU.
func TestDecodedWorkloadReplaysIdentically(t *testing.T) {
	rtxDown, err := config.RTX2060().Downscale(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"SPRNG", "SHIP"} {
		built, err := rt.CachedWorkloadContext(context.Background(), name, 32, 32, 1)
		if err != nil {
			t.Fatal(err)
		}
		data, _, err := store.EncodeFramed(built)
		if err != nil {
			t.Fatal(err)
		}
		v, _, _, err := store.DecodeFramed(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		decoded := v.(*rt.Workload)
		for _, cfg := range []config.Config{config.MobileSoC(), rtxDown} {
			want := runJob(t, cfg, built.Traces)
			got := runJob(t, cfg, decoded.Traces)
			want.WallTime, got.WallTime = 0, 0
			if got != want {
				t.Errorf("%s on %s: decoded workload diverged:\ngot  %+v\nwant %+v", name, cfg.Name, got, want)
			}
		}
	}
}
