package core

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"zatel/internal/faults"
	"zatel/internal/metrics"
)

// injected returns small() options with the acceptance-criteria injection:
// 30% per-attempt group error rate at a fixed seed, K=4 (the MobileSoC
// gcd default at 64x64).
func injected(seed uint64) Options {
	opts := small("PARK")
	opts.FT.Inject = faults.Config{ErrorRate: 0.3, Seed: seed}
	return opts
}

func TestPredictDegradedDeterministic(t *testing.T) {
	// Seed 3 deterministically fails groups 2 and 3 on their single
	// attempt; the surviving half meets the default quorum ceil(4/2)=2.
	run := func() *Result {
		t.Helper()
		res, err := Predict(injected(3))
		if err != nil {
			t.Fatalf("degraded prediction errored: %v", err)
		}
		return res
	}
	res := run()
	d := res.Degraded
	if d == nil {
		t.Fatal("no Degraded metadata on a prediction that lost groups")
	}
	if !reflect.DeepEqual(d.FailedGroups, []int{2, 3}) {
		t.Errorf("FailedGroups = %v, want [2 3]", d.FailedGroups)
	}
	if d.Total != 4 || d.Survivors != 2 || d.Quorum != 2 {
		t.Errorf("degradation %+v, want 2/4 survivors at quorum 2", d)
	}
	for _, gi := range d.FailedGroups {
		g := res.Groups[gi]
		if g.Err == nil || !errors.Is(g.Err, faults.ErrInjected) {
			t.Errorf("group %d error %v does not wrap ErrInjected", gi, g.Err)
		}
		if g.Attempts != 1 {
			t.Errorf("group %d consumed %d attempts without retries enabled", gi, g.Attempts)
		}
	}
	for _, m := range metrics.All() {
		v := res.Predicted[m]
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("degraded %s = %v, want finite non-negative", m, v)
		}
	}
	if s := d.String(); !strings.Contains(s, "degraded") || !strings.Contains(s, "2/4") {
		t.Errorf("degradation summary %q", s)
	}

	// The whole degraded outcome must reproduce bit-for-bit.
	again := run()
	if !reflect.DeepEqual(again.Degraded.FailedGroups, d.FailedGroups) {
		t.Errorf("second run failed %v, first %v", again.Degraded.FailedGroups, d.FailedGroups)
	}
	if !reflect.DeepEqual(again.Predicted, res.Predicted) {
		t.Errorf("degraded predictions differ between identical runs:\n%v\n%v",
			again.Predicted, res.Predicted)
	}
}

func TestPredictDegradedDeterministicAcrossPoolSizes(t *testing.T) {
	// Injection decisions are keyed by (seed, group, attempt), so the same
	// groups must fail whether the fan-out runs serially or on a pool.
	serial, err := Predict(injected(3))
	if err != nil {
		t.Fatal(err)
	}
	par := injected(3)
	par.Parallel = true
	par.Workers = 4
	pooled, err := Predict(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Degraded.FailedGroups, pooled.Degraded.FailedGroups) {
		t.Errorf("serial failed %v, pooled failed %v",
			serial.Degraded.FailedGroups, pooled.Degraded.FailedGroups)
	}
	if !reflect.DeepEqual(serial.Predicted, pooled.Predicted) {
		t.Error("pool size changed the degraded prediction")
	}
}

func TestPredictQuorumUnmet(t *testing.T) {
	opts := small("PARK")
	opts.FT.Inject = faults.Config{ErrorRate: 1, Seed: 1}
	_, err := Predict(opts)
	if err == nil {
		t.Fatal("total group failure produced a prediction")
	}
	if !strings.Contains(err.Error(), "quorum") {
		t.Errorf("error %v does not mention the quorum", err)
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Errorf("aggregated error %v does not wrap the injected cause", err)
	}
}

func TestPredictStrictQuorum(t *testing.T) {
	// Quorum < 0 restores the strict pre-fault-tolerance behaviour: the
	// seed-3 double failure that degrades by default becomes an error.
	opts := injected(3)
	opts.FT.Quorum = -1
	if _, err := Predict(opts); err == nil || !strings.Contains(err.Error(), "quorum 4 unmet") {
		t.Errorf("strict quorum let a degraded prediction through (err=%v)", err)
	}
	// And an explicit quorum above the group count clamps to all-groups.
	opts.FT.Quorum = 99
	if _, err := Predict(opts); err == nil {
		t.Error("quorum 99 (clamped to 4) let a degraded prediction through")
	}
}

func TestPredictRetriesRecover(t *testing.T) {
	// At seed 3, group 2 fails only attempt 1 and group 3 fails attempts
	// 1-3; four attempts recover every group, so the prediction is clean
	// and must equal the injection-free one.
	opts := injected(3)
	opts.FT.Attempts = 4
	res, err := Predict(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded != nil {
		t.Fatalf("retries left degradation behind: %v", res.Degraded)
	}
	if got := res.Groups[2].Attempts; got != 2 {
		t.Errorf("group 2 recovered after %d attempts, want 2", got)
	}
	if got := res.Groups[3].Attempts; got != 4 {
		t.Errorf("group 3 recovered after %d attempts, want 4", got)
	}
	clean, err := Predict(small("PARK"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Predicted, clean.Predicted) {
		t.Error("recovered prediction differs from the injection-free one")
	}
}

func TestPredictInjectionValidation(t *testing.T) {
	opts := small("PARK")
	opts.FT.Inject = faults.Config{ErrorRate: 2}
	if _, err := Predict(opts); err == nil {
		t.Error("invalid injection config accepted")
	}
	opts = small("PARK")
	opts.FT.Attempts = -1
	if _, err := Predict(opts); err == nil {
		t.Error("negative attempts accepted")
	}
	opts = small("PARK")
	opts.FT.Timeout = -time.Second
	if _, err := Predict(opts); err == nil {
		t.Error("negative timeout accepted")
	}
}

// TestFaultInjectionSoak drives predictions through mixed error, panic and
// straggler injection across many seeds: every run must either produce a
// finite (possibly degraded) prediction or fail the quorum cleanly —
// never hang, crash or emit NaNs. check.sh runs this under -race.
func TestFaultInjectionSoak(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 1; seed <= seeds; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			opts := small("PARK")
			opts.Parallel = true
			opts.FT = FaultTolerance{
				Attempts: 2,
				Backoff:  time.Millisecond,
				Timeout:  30 * time.Second,
				Inject: faults.Config{
					ErrorRate:     0.25,
					PanicRate:     0.1,
					StragglerRate: 0.2,
					StragglerMean: time.Millisecond,
					Seed:          uint64(seed),
				},
			}
			res, err := Predict(opts)
			if err != nil {
				if !strings.Contains(err.Error(), "quorum") {
					t.Errorf("seed %d: non-quorum failure: %v", seed, err)
				}
				return
			}
			for _, m := range metrics.All() {
				if v := res.Predicted[m]; math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Errorf("seed %d: %s = %v", seed, m, v)
				}
			}
			if res.Degraded != nil {
				d := res.Degraded
				if d.Survivors < d.Quorum || d.Survivors+len(d.FailedGroups) != d.Total {
					t.Errorf("seed %d: inconsistent degradation %+v", seed, d)
				}
			}
		})
	}
}
