package core

import (
	"testing"

	"zatel/internal/config"
	"zatel/internal/rt"
	"zatel/internal/sampling"
	"zatel/internal/store"
)

// TestCacheKeyGolden pins the prediction cache key to a concrete digest.
// These digests are served to zateld clients and would address any on-disk
// cache layer, so a silent change to the canonical encoding — a reordered
// field, a renamed tag, a new Options or Config field not reflected in a
// version bump — must fail CI rather than silently splitting or colliding
// the cache.
func TestCacheKeyGolden(t *testing.T) {
	o := Options{Config: config.MobileSoC(), Scene: "PARK"}
	const want = "dbbb2a24aa5ba5b00cd007597aed6b29a2fef935bb921021793ba29e9d633e1d"
	if got := o.CacheKey().String(); got != want {
		t.Errorf("CacheKey = %s, want %s\n(deliberate format change? bump predict/v2 and update)", got, want)
	}

	wk := rt.WorkloadKey("PARK", 128, 128, 2)
	const wantWL = "511d438be28144494c058ce1551b941cfddd06e90380f5fb970d9bae95b680bc"
	if wk.String() != wantWL {
		t.Errorf("WorkloadKey = %s, want %s", wk, wantWL)
	}
	const wantQ = "3624b0d39ab0b2c4e0cf6300efefa2bcbda5eb8ea20b43005cf98dc15305dcaa"
	if got := QuantizedKey(wk, 8, 1).String(); got != wantQ {
		t.Errorf("QuantizedKey = %s, want %s", got, wantQ)
	}
}

// TestCacheKeyDefaultsApplied: zero-value options and options with the
// defaults spelled out are the same prediction, so they must share a key.
func TestCacheKeyDefaultsApplied(t *testing.T) {
	zero := Options{Config: config.MobileSoC(), Scene: "PARK"}
	explicit := Options{
		Config: config.MobileSoC(), Scene: "PARK",
		Width: 128, Height: 128, SPP: 2,
		ChunkW: 32, ChunkH: 2, BlockW: 32, BlockH: 2,
		QuantLevels: 8, Seed: 1,
	}
	if zero.CacheKey() != explicit.CacheKey() {
		t.Error("explicit defaults changed the cache key")
	}
}

// TestCacheKeyExecutionStrategyInvariant: Parallel/Workers/Store pick how a
// prediction runs, not what it predicts, so they must not split the cache.
func TestCacheKeyExecutionStrategyInvariant(t *testing.T) {
	base := Options{Config: config.RTX2060(), Scene: "BATH", Seed: 7}
	variant := base
	variant.Parallel = true
	variant.Workers = 4
	variant.Store = store.New(0)
	if base.CacheKey() != variant.CacheKey() {
		t.Error("execution-strategy fields leaked into the cache key")
	}
}

// TestCacheKeySamplingNormalised: the sampling knobs only influence
// replicated strategies, so setting them under a point-estimate strategy
// must not split the cache.
func TestCacheKeySamplingNormalised(t *testing.T) {
	base := Options{Config: config.MobileSoC(), Scene: "PARK"}
	variant := base
	variant.Sampling = SamplingOptions{Replicates: 9, Confidence: 0.99, MaxRounds: 7}
	if base.CacheKey() != variant.CacheKey() {
		t.Error("sampling knobs split the cache for a point-estimate strategy")
	}
}

// TestCacheKeySensitivity: every class of semantic field must move the key.
func TestCacheKeySensitivity(t *testing.T) {
	base := Options{Config: config.MobileSoC(), Scene: "PARK"}
	mutate := map[string]func(*Options){
		"scene":       func(o *Options) { o.Scene = "BATH" },
		"config":      func(o *Options) { o.Config = config.RTX2060() },
		"resolution":  func(o *Options) { o.Width = 64 },
		"spp":         func(o *Options) { o.SPP = 4 },
		"division":    func(o *Options) { o.Division = CoarseGrained },
		"fraction":    func(o *Options) { o.FixedFraction = 0.4 },
		"maxfraction": func(o *Options) { o.MaxFraction = 0.1 },
		"k":           func(o *Options) { o.K = 2 },
		"regression":  func(o *Options) { o.Regression = true },
		"seed":        func(o *Options) { o.Seed = 99 },
		"attempts":    func(o *Options) { o.FT.Attempts = 3 },
		"quorum":      func(o *Options) { o.FT.Quorum = -1 },
		"injection":   func(o *Options) { o.FT.Inject.ErrorRate = 0.3 },
		"dist":        func(o *Options) { o.Dist = sampling.Stratified },
		"replicates":  func(o *Options) { o.Dist = sampling.Stratified; o.Sampling.Replicates = 8 },
		"confidence":  func(o *Options) { o.Dist = sampling.Stratified; o.Sampling.Confidence = 0.99 },
		"rounds":      func(o *Options) { o.Dist = sampling.Stratified; o.Sampling.MaxRounds = 6 },
		"targetci":    func(o *Options) { o.Dist = sampling.Stratified; o.TargetCIHalfWidth = 0.05 },
	}
	seen := map[store.Digest]string{base.CacheKey(): "base"}
	for name, f := range mutate {
		o := base
		f(&o)
		d := o.CacheKey()
		if prev, dup := seen[d]; dup {
			t.Errorf("mutating %q collides with %q", name, prev)
		}
		seen[d] = name
	}
}
