package store

import (
	"context"
	"math/rand"
	"testing"

	"zatel/internal/obs"
)

// TestShortIsStringPrefix: Short encodes six bytes itself instead of slicing
// the full hex form; the two must stay one encoding.
func TestShortIsStringPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 1000; i++ {
		var d Digest
		rng.Read(d[:])
		if got, want := d.Short(), d.String()[:12]; got != want {
			t.Fatalf("Short() = %q, want String()[:12] = %q", got, want)
		}
	}
}

// TestResident: the memory-only lookup reports exactly what GetOrBuild's
// first branch would (a counted hit that refreshes the LRU position) and
// nothing else: no build, no flight, no miss.
func TestResident(t *testing.T) {
	s := New(20)
	ctx := context.Background()
	if _, ok := s.Resident(ctx, key(1)); ok {
		t.Fatal("Resident found a key nobody built")
	}
	if c := s.Snapshot(); c.Hits+c.Misses+c.Builds != 0 || c.Inflight != 0 {
		t.Fatalf("a Resident miss moved counters: %+v", c)
	}
	for i := 1; i <= 2; i++ {
		if _, _, err := s.GetOrBuild(ctx, key(i), constBuild(i, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := s.Resident(ctx, key(1)); !ok || v.(int) != 1 {
		t.Fatalf("Resident(1) = %v %v", v, ok)
	}
	// Key 1 was just used, so key 2 is the one a third insert evicts.
	if _, _, err := s.GetOrBuild(ctx, key(3), constBuild(3, 10)); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(key(1)) || s.Contains(key(2)) {
		t.Error("Resident did not refresh the key's LRU position")
	}
	if c := s.Snapshot(); c.Hits != 1 || c.Builds != 3 {
		t.Errorf("counters = %+v, want 1 hit and 3 builds", c)
	}

	// Under a tracer the lookup is the same store.hit span GetOrBuild records.
	tr := obs.NewTracer()
	s.Resident(obs.WithTracer(ctx, tr), key(1))
	if spans := tr.Snapshot(); len(spans) != 1 || spans[0].Name != "store.hit" || spans[0].Attrs["key"] != key(1).Short() {
		t.Errorf("traced Resident recorded %+v, want one store.hit span with the key", spans)
	}
}

// TestUntracedHitAllocatesNothing: the span attribute (and the hex encoding
// behind it) used to be evaluated for a context that carries no tracer.
func TestUntracedHitAllocatesNothing(t *testing.T) {
	s := New(0)
	ctx := context.Background()
	k := key(1)
	build := constBuild("resident", 8)
	if _, _, err := s.GetOrBuild(ctx, k, build); err != nil {
		t.Fatal(err)
	}
	getOrBuild := testing.AllocsPerRun(100, func() {
		if _, out, _ := s.GetOrBuild(ctx, k, build); out != Hit {
			t.Fatalf("outcome %v, want hit", out)
		}
	})
	resident := testing.AllocsPerRun(100, func() {
		if _, ok := s.Resident(ctx, k); !ok {
			t.Fatal("not resident")
		}
	})
	t.Logf("untraced hit: GetOrBuild %.0f allocs/op, Resident %.0f", getOrBuild, resident)
	if !raceEnabled && (getOrBuild != 0 || resident != 0) {
		t.Errorf("an untraced hit allocates (GetOrBuild %.0f, Resident %.0f), want 0", getOrBuild, resident)
	}
}
