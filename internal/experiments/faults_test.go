package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/faults"
)

// soaked returns small() settings with total fault injection: every
// prediction fails, so every grid cell must render as ERR instead of
// aborting the experiment.
func soaked() Settings {
	s := small()
	s.FT.Inject = faults.Config{ErrorRate: 1, Seed: 1}
	return s
}

func TestPercentSweepRendersFailedCells(t *testing.T) {
	r, err := PercentSweep(soaked(), config.MobileSoC(), []string{"PARK"})
	if err != nil {
		t.Fatalf("total injection aborted the sweep: %v", err)
	}
	pts := r.Points["PARK"]
	if len(pts) != len(r.Percents) {
		t.Fatalf("%d points for %d percents", len(pts), len(r.Percents))
	}
	for _, pt := range pts {
		if pt.Err == nil {
			t.Errorf("point %s@%d%% survived rate-1 injection", pt.Scene, pt.Percent)
		}
	}
	if r.Faults.Failed != len(pts) {
		t.Errorf("tally counted %d failures, want %d", r.Faults.Failed, len(pts))
	}
	if r.FitErr == "" {
		t.Error("power fit claimed success with zero surviving points")
	}
	var buf bytes.Buffer
	r.RenderFig13(&buf)
	r.RenderFig16(&buf)
	out := buf.String()
	if !strings.Contains(out, "ERR") {
		t.Error("render has no ERR cells")
	}
	if !strings.Contains(out, "failed after retries") {
		t.Error("render has no failure legend")
	}
}

func TestFig10RendersFailedConfigs(t *testing.T) {
	r, err := Fig10(soaked())
	if err != nil {
		t.Fatalf("total injection aborted fig10: %v", err)
	}
	if len(r.Failed) != 2 || r.CappedErr == "" {
		t.Errorf("failures: %v, capped %q — want both configs and the capped variant", r.Failed, r.CappedErr)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "ERR") {
		t.Error("render has no ERR cells")
	}
}

func TestAblationsRendersFailedCells(t *testing.T) {
	r, err := Ablations(soaked())
	if err != nil {
		t.Fatalf("total injection aborted the ablations: %v", err)
	}
	// The full simulations are references, which injection spares; the
	// split-L2 and Zatel cells are predictions.
	for _, c := range []AblationCell{r.Rows[2].Alt, r.Rows[3].Choice} {
		if c.Err == "" {
			t.Errorf("%s cell survived rate-1 injection", c.Label)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	for _, want := range []string{"ERR", "failed after retries"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig20RendersFailedScenes(t *testing.T) {
	r, err := Fig20(soaked(), config.MobileSoC(), []string{"PARK"})
	if err != nil {
		t.Fatalf("total injection aborted fig20: %v", err)
	}
	if len(r.Failed) != 1 || r.Total != 0 {
		t.Errorf("Failed=%v Total=%d, want the one scene failed and no pairs counted", r.Failed, r.Total)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "ERR") {
		t.Error("render has no ERR block")
	}
}

func TestSweepRecoversWithRetries(t *testing.T) {
	// Injection at 30% with generous retries: the grid should come out
	// clean or at worst partially degraded, never aborted.
	s := small()
	s.FT = core.FaultTolerance{
		Attempts: 6,
		Inject:   faults.Config{ErrorRate: 0.3, Seed: 7},
	}
	r, err := PercentSweep(s, config.MobileSoC(), []string{"PARK"})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range r.Points["PARK"] {
		if pt.Err != nil {
			t.Errorf("point @%d%% failed despite 6 attempts: %v", pt.Percent, pt.Err)
		}
	}
	if r.FitErr != "" {
		t.Errorf("power fit unavailable: %s", r.FitErr)
	}
}

func TestCancelledGridRendersPartially(t *testing.T) {
	// Once the references exist, a cancelled context must not abort the
	// driver: every cell carries the context error and still renders.
	s := small()
	if _, err := core.Reference(config.MobileSoC(), "PARK", s.Width, s.Height, s.SPP); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Ctx = ctx
	r, err := PercentSweep(s, config.MobileSoC(), []string{"PARK"})
	if err != nil {
		t.Fatalf("cancelled sweep aborted: %v", err)
	}
	for _, pt := range r.Points["PARK"] {
		if pt.Err == nil {
			t.Error("cancelled point reported success")
		}
	}
	var buf bytes.Buffer
	r.RenderFig13(&buf)
	if !strings.Contains(buf.String(), "ERR") {
		t.Error("cancelled grid render has no ERR cells")
	}
}

func TestCancelledReferencesReturnPromptly(t *testing.T) {
	// The serial reference warm-up honours cancellation: at a frame size no
	// other test memoises, a cancelled sweep returns the context error
	// instead of simulating the full frame first.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := small()
	s.Width, s.Height = 40, 40
	s.Ctx = ctx
	if _, err := PercentSweep(s, config.MobileSoC(), []string{"PARK"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
