package cli

import (
	"context"
	"flag"
	"os"
	"regexp"
	"testing"

	"zatel/internal/metrics"
	"zatel/internal/store"
)

// TestREADMEListsEveryFlag keeps README.md's flag tables in step with the
// shared flag groups: every flag this package can register is documented.
func TestREADMEListsEveryFlag(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	FrameFlags(fs, Frame{Scene: "PARK", Config: "mobile"})
	SamplingFlags(fs)
	FaultFlags(fs)
	c := New(fs, "all")
	c.StoreFlags("0")
	c.ProfileFlags()
	fs.VisitAll(func(f *flag.Flag) {
		if !regexp.MustCompile("`-" + regexp.QuoteMeta(f.Name) + "[ `]").Match(readme) {
			t.Errorf("README.md does not document -%s", f.Name)
		}
	})
}

// TestStoreFlagsPersistAcrossRuns: -store-dir attaches a disk tier to the
// process-wide store for the run, and Finish persists what the run built
// and detaches the tier, so the next run over the directory starts warm.
func TestStoreFlagsPersistAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	key := store.NewKey("test/v1").Str("run", "cli").Digest()
	run := func() (store.Outcome, store.Stats) {
		fs := flag.NewFlagSet("run", flag.ContinueOnError)
		c := New(fs, "run")
		c.StoreFlags("0")
		if err := fs.Parse([]string{"-store-dir", dir, "-log-level", "error"}); err != nil {
			t.Fatal(err)
		}
		c.Start()
		store.Default().SetMaxBytes(1) // a fresh process: nothing resident
		store.Default().SetMaxBytes(0)
		_, out, err := store.Default().GetOrBuild(context.Background(), key,
			func(context.Context) (any, int64, error) { return metrics.Report{Cycles: 7}, 64, nil })
		if err != nil {
			t.Fatal(err)
		}
		during := store.Default().Stats()
		c.Finish(nil)
		return out, during
	}
	if out, st := run(); out != store.Miss || !st.DiskEnabled {
		t.Fatalf("first run: outcome %v, disk tier attached %v; want a miss with a disk tier", out, st.DiskEnabled)
	}
	if store.Default().Stats().DiskEnabled {
		t.Error("Finish left the closed disk tier attached")
	}
	if out, _ := run(); out != store.DiskHit {
		t.Errorf("second run over the same -store-dir: outcome %v, want disk", out)
	}
}
