package experiments

import (
	"bytes"
	"strings"
	"testing"

	"zatel/internal/config"
	"zatel/internal/store"
)

// withDefaultStore runs f against the process-wide store with every
// resident artifact evicted, the given memory budget and disk tier, and
// restores the budget and detaches the disk afterwards.
func withDefaultStore(t *testing.T, maxBytes int64, disk *store.Disk, f func(st *store.Store)) {
	t.Helper()
	st := store.Default()
	prev := st.Snapshot().MaxBytes
	st.SetMaxBytes(1)
	st.SetMaxBytes(maxBytes)
	st.AttachDisk(disk)
	defer func() {
		st.AttachDisk(nil)
		st.SetMaxBytes(prev)
	}()
	f(st)
}

// TestBoundedStoreSimulatesEachReferenceOnce: a store too small to keep any
// artifact resident must not make the grid re-run a warmed reference. The
// nine points of one scene share one reference: its one simulation needs
// one workload, and each point builds its own workload and heatmap.
func TestBoundedStoreSimulatesEachReferenceOnce(t *testing.T) {
	s := Settings{Width: 24, Height: 24, SPP: 1, Workers: 1}
	withDefaultStore(t, 1, nil, func(st *store.Store) {
		before := st.Snapshot().Builds
		res, err := PercentSweep(s, config.MobileSoC(), []string{"SPRNG"})
		if err != nil {
			t.Fatal(err)
		}
		if res.Faults.Failed != 0 {
			t.Fatalf("grid failed: %s", res.Faults.FirstErr)
		}
		points := uint64(len(res.Percents))
		if got, want := st.Snapshot().Builds-before, 2+2*points; got != want {
			t.Errorf("%d builds, want %d: 1 reference and its workload, then a workload and a heatmap per point", got, want)
		}
		pts := res.Points["SPRNG"]
		for _, pt := range pts[1:] {
			if pt.RefWall != pts[0].RefWall {
				t.Errorf("%d%%: reference wall time %v, want the pinned %v", pt.Percent, pt.RefWall, pts[0].RefWall)
			}
		}
	})
}

// TestLoadedReferencesMarked: speedups against references a disk tier served
// carry ‡ and a legend; speedups against references simulated in this
// process carry neither.
func TestLoadedReferencesMarked(t *testing.T) {
	dir := t.TempDir()
	run := func() *Fig10Result {
		t.Helper()
		d, err := store.OpenDisk(store.DiskConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		var res *Fig10Result
		withDefaultStore(t, 0, d, func(*store.Store) {
			res, err = Fig10(Settings{Width: 24, Height: 24, SPP: 1})
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	render := func(r *Fig10Result) string {
		var buf bytes.Buffer
		r.Render(&buf)
		return buf.String()
	}

	first := run()
	if first.Pool.LoadedRefs != 0 || strings.Contains(render(first), "‡") {
		t.Errorf("first run marks loaded references:\n%s", render(first))
	}
	second := run()
	out := render(second)
	if second.Pool.LoadedRefs != 3 || !second.CappedRefLoaded {
		t.Errorf("second run: %d loaded, capped %v; want all 3 points loaded", second.Pool.LoadedRefs, second.CappedRefLoaded)
	}
	for name := range second.Speedup {
		if !second.RefLoaded[name] {
			t.Errorf("%s: reference not marked as loaded", name)
		}
	}
	if !strings.Contains(out, "x‡") || !strings.Contains(out, "‡ 3 point(s) use a reference loaded from the artifact store") {
		t.Errorf("second run does not mark its speedups:\n%s", out)
	}
}
