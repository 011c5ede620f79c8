package core

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"zatel/internal/config"
	"zatel/internal/metrics"
	"zatel/internal/rt"
	"zatel/internal/store"
)

// testReport sets every field of a metrics.Report to a distinct value,
// including negative integers, counters past 2^53 and floats with no short
// decimal form, which a lossy encoding would change.
func testReport() metrics.Report {
	var r metrics.Report
	rv := reflect.ValueOf(&r).Elem()
	for i := 0; i < rv.NumField(); i++ {
		switch f := rv.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(math.MaxUint64 - uint64(i))
		case reflect.Int, reflect.Int64:
			f.SetInt(-int64(i+1) * 1e12)
		case reflect.Float64:
			f.SetFloat(math.Pi * float64(i))
		}
	}
	r.WallTime = 1234567 * time.Microsecond
	return r
}

func TestReferenceCodecRoundTrip(t *testing.T) {
	in := testReport()
	data, kind, err := store.EncodeFramed(in)
	if err != nil || kind != ReferenceCodecKind {
		t.Fatalf("EncodeFramed: kind %q, %v", kind, err)
	}
	v, size, _, err := store.DecodeFramed(data)
	if err != nil {
		t.Fatalf("DecodeFramed: %v", err)
	}
	if got := metrics.Report(v.(loadedReport)); got != in {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, got)
	}
	if size != referenceSize || size <= 0 {
		t.Errorf("size = %d, want %d", size, referenceSize)
	}
	again, _, err := store.EncodeFramed(v)
	if err != nil || !bytes.Equal(again, data) {
		t.Errorf("re-encode is not byte-identical (err %v)", err)
	}
	payload, _ := referenceCodec{}.Encode(in)
	for _, n := range []int{0, 8, len(payload) - 1} {
		if _, _, err := (referenceCodec{}).Decode(payload[:n]); err == nil {
			t.Errorf("Decode of %d/%d bytes succeeded", n, len(payload))
		}
	}
	if _, _, err := (referenceCodec{}).Decode(append(payload, 0)); err == nil {
		t.Error("Decode of an over-long payload succeeded")
	}
}

// TestReferenceKeySeparatesConfigsAndFrames: the key must tell apart every
// input that changes the report — the configuration (down to one field)
// and the frame — and nothing else.
func TestReferenceKeySeparatesConfigsAndFrames(t *testing.T) {
	wl := rt.WorkloadKey("PARK", 64, 64, 1)
	base := ReferenceKey(config.MobileSoC(), wl)
	if base != ReferenceKey(config.MobileSoC(), wl) {
		t.Fatal("ReferenceKey is not deterministic")
	}
	l2 := config.MobileSoC()
	l2.L2Latency++
	for name, k := range map[string]store.Digest{
		"config":    ReferenceKey(config.RTX2060(), wl),
		"one field": ReferenceKey(l2, wl),
		"scene":     ReferenceKey(config.MobileSoC(), rt.WorkloadKey("SHIP", 64, 64, 1)),
		"spp":       ReferenceKey(config.MobileSoC(), rt.WorkloadKey("PARK", 64, 64, 2)),
	} {
		if k == base {
			t.Errorf("changing the %s keeps the reference key", name)
		}
	}
}

// TestReferenceDiskHitAfterRestart: a reference built by one process is
// served from the disk tier by the next, with no simulation, with the wall
// time of the run that built it, and marked as loaded — also on the memory
// hits that follow.
func TestReferenceDiskHitAfterRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Config: config.MobileSoC(), Scene: "SPRNG", Width: 24, Height: 24, SPP: 1}

	open := func() (*store.Store, *store.Disk) {
		d, err := store.OpenDisk(store.DiskConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		st := store.New(0)
		st.AttachDisk(d)
		return st, d
	}
	first, d := open()
	opts.Store = first
	built, loaded, err := ReferenceLoaded(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if loaded {
		t.Error("a reference this process simulated reads as loaded")
	}
	if c := first.Snapshot(); c.Builds != 1 {
		t.Fatalf("first run: %d builds, want 1", c.Builds)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	second, d2 := open()
	defer d2.Close()
	opts.Store = second
	for i := 0; i < 2; i++ {
		got, loaded, err := ReferenceLoaded(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != built || !loaded {
			t.Errorf("lookup %d after restart: loaded %v, report\n got %+v\nwant %+v", i, loaded, got, built)
		}
	}
	if c := second.Snapshot(); c.Builds != 0 || c.DiskHits != 1 || c.Hits != 1 {
		t.Errorf("second run: %+v, want 0 builds, 1 disk hit and 1 memory hit", c)
	}
}

// TestReferencesCoalesce: concurrent first requests for one reference run
// one simulation, and everyone gets its report.
func TestReferencesCoalesce(t *testing.T) {
	st := store.New(0)
	opts := Options{Config: config.MobileSoC(), Scene: "SPRNG", Width: 20, Height: 20, SPP: 1, Store: st}
	const callers = 4
	reps := make(chan metrics.Report, callers)
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			r, err := ReferenceContext(context.Background(), opts)
			reps <- r
			errs <- err
		}()
	}
	first := <-reps
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if r := <-reps; r != first {
				t.Errorf("caller %d got a different report", i)
			}
		}
	}
	if c := st.Snapshot(); c.Builds != 1 || c.Hits+c.Coalesced+c.Misses != callers {
		t.Errorf("counters %+v, want one build shared by %d callers", c, callers)
	}
}
