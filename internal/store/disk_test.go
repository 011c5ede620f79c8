package store

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zatel/internal/faults"
)

// testBlob is the disk tests' artifact type, registered under its own
// versioned kind so these tests never depend on the real rt/core codecs.
type testBlob struct{ data []byte }

// SizeBytes implements Sizer.
func (b *testBlob) SizeBytes() int64 { return int64(len(b.data)) }

type testBlobCodec struct{}

func (testBlobCodec) Kind() string { return "test.blob/v1" }
func (testBlobCodec) Encodes(v any) bool {
	_, ok := v.(*testBlob)
	return ok
}
func (testBlobCodec) Encode(v any) ([]byte, error) {
	b, ok := v.(*testBlob)
	if !ok {
		return nil, fmt.Errorf("store: test codec cannot encode %T", v)
	}
	return append([]byte{}, b.data...), nil
}
func (testBlobCodec) Decode(data []byte) (any, int64, error) {
	if len(data) == 0 {
		return nil, 0, fmt.Errorf("store: empty test blob")
	}
	return &testBlob{data: append([]byte{}, data...)}, int64(len(data)), nil
}

func init() { RegisterCodec(testBlobCodec{}) }

func blob(i, size int) *testBlob { return &testBlob{data: bytes.Repeat([]byte{byte(i)}, size)} }

// blobBuild is a build function returning blob(i, size), counting calls.
func blobBuild(i, size int, calls *int) func(context.Context) (any, int64, error) {
	return func(context.Context) (any, int64, error) {
		if calls != nil {
			*calls++
		}
		return blob(i, size), 0, nil // size 0 → the store asks Sizer
	}
}

func openTestDisk(t *testing.T, cfg DiskConfig) *Disk {
	t.Helper()
	d, err := OpenDisk(cfg)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// dirNames lists the cache directory's file names.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// TestDiskPersistsAcrossReopen is the tier's core promise: an artifact
// built before a restart is served warm — integrity-verified, DiskHit
// outcome — after it, without running the build.
func TestDiskPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st := New(0)
	d := openTestDisk(t, DiskConfig{Dir: dir})
	st.AttachDisk(d)
	var builds int
	if _, out, err := st.GetOrBuild(ctx, key(1), blobBuild(1, 500, &builds)); err != nil || out != Miss {
		t.Fatalf("cold build: %v %v", out, err)
	}
	d.Flush()
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if dc := d.Counters(); dc.Writes != 1 {
		t.Fatalf("disk writes = %d, want 1: %+v", dc.Writes, dc)
	}

	// "Restart": fresh memory store, reopened disk.
	d2 := openTestDisk(t, DiskConfig{Dir: dir})
	if dc := d2.Counters(); dc.ScanEntries != 1 || dc.Entries != 1 {
		t.Fatalf("reopen scan: %+v", dc)
	}
	st2 := New(0)
	st2.AttachDisk(d2)
	v, out, err := st2.GetOrBuild(ctx, key(1), func(context.Context) (any, int64, error) {
		t.Error("build ran despite a valid disk entry")
		return nil, 0, fmt.Errorf("unreachable")
	})
	if err != nil || out != DiskHit {
		t.Fatalf("warm-from-disk: outcome %v, err %v", out, err)
	}
	if got := v.(*testBlob); !bytes.Equal(got.data, blob(1, 500).data) {
		t.Fatal("disk round trip corrupted the artifact")
	}
	// The disk hit re-admitted the artifact to memory.
	if _, out, _ := st2.GetOrBuild(ctx, key(1), blobBuild(1, 500, nil)); out != Hit {
		t.Errorf("second lookup outcome %v, want memory hit", out)
	}
	c := st2.Snapshot()
	if c.DiskHits != 1 || c.Builds != 0 {
		t.Errorf("store counters after disk hit: %+v", c)
	}
	if builds != 1 {
		t.Errorf("build ran %d times across restarts, want 1", builds)
	}
}

// TestDiskTornWriteQuarantinedAndRebuilt: a write the disk acknowledged but
// only partially persisted (power-cut model) must never be served — the
// read detects the tear, quarantines the file aside, and the store rebuilds.
func TestDiskTornWriteQuarantinedAndRebuilt(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	ffs, err := faults.NewFaultFS(nil, faults.FSConfig{TornWriteRate: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	st := New(0)
	d := openTestDisk(t, DiskConfig{Dir: dir, FS: ffs})
	st.AttachDisk(d)

	if _, _, err := st.GetOrBuild(ctx, key(2), blobBuild(2, 400, nil)); err != nil {
		t.Fatal(err)
	}
	d.Flush()
	if got := ffs.Stats().TornWrites; got != 1 {
		t.Fatalf("torn writes = %d, want 1", got)
	}
	// Heal the disk; the torn entry is already on it.
	if err := ffs.SetConfig(faults.FSConfig{}); err != nil {
		t.Fatal(err)
	}

	// Fresh memory store so the lookup reaches the disk.
	st2 := New(0)
	st2.AttachDisk(d)
	var rebuilds int
	v, out, err := st2.GetOrBuild(ctx, key(2), blobBuild(2, 400, &rebuilds))
	if err != nil || out != Miss || rebuilds != 1 {
		t.Fatalf("torn entry was not rebuilt: outcome %v, err %v, rebuilds %d", out, err, rebuilds)
	}
	if got := v.(*testBlob); !bytes.Equal(got.data, blob(2, 400).data) {
		t.Fatal("rebuilt artifact corrupted")
	}
	if dc := d.Counters(); dc.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1: %+v", dc.Quarantined, dc)
	}
	var quarantined bool
	for _, name := range dirNames(t, dir) {
		if strings.Contains(name, diskQuarInfix) {
			quarantined = true
		}
	}
	if !quarantined {
		t.Errorf("no quarantine file in %v", dirNames(t, dir))
	}
}

// TestDiskBitrotQuarantinedOnRead: a bit flipped at rest fails the payload
// checksum on read; the entry is quarantined and read as a miss.
func TestDiskBitrotQuarantinedOnRead(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, DiskConfig{Dir: dir})
	d.Put(key(3), blob(3, 300))
	d.Flush()

	// Rot one payload bit directly in the entry file.
	path := filepath.Join(dir, key(3).String()+diskEntSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-7] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, ok := d.Get(key(3)); ok {
		t.Fatal("bit-rotted entry was served")
	}
	dc := d.Counters()
	if dc.Quarantined != 1 || dc.Misses != 1 || dc.Entries != 0 {
		t.Errorf("counters after bitrot read: %+v", dc)
	}
	// A second lookup is a plain miss — the quarantined entry costs nothing.
	if _, _, ok := d.Get(key(3)); ok {
		t.Fatal("quarantined key served on retry")
	}
}

// TestDiskScanQuarantinesCorrupt: corruption that happened while the
// process was down is caught by the startup scan's full verification, and
// intact neighbours are still indexed.
func TestDiskScanQuarantinesCorrupt(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, DiskConfig{Dir: dir})
	d.Put(key(4), blob(4, 200))
	d.Put(key(5), blob(5, 200))
	d.Flush()
	d.Close()

	// Truncate one entry mid-payload: a torn write that a crash froze.
	path := filepath.Join(dir, key(4).String()+diskEntSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-50], 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := openTestDisk(t, DiskConfig{Dir: dir})
	dc := d2.Counters()
	if dc.Quarantined != 1 || dc.ScanEntries != 1 || dc.Entries != 1 {
		t.Fatalf("scan counters: %+v", dc)
	}
	if d2.Contains(key(4)) {
		t.Error("corrupt entry indexed")
	}
	if !d2.Contains(key(5)) {
		t.Error("intact entry not indexed")
	}
	if _, _, ok := d2.Get(key(5)); !ok {
		t.Error("intact entry not served after scan")
	}
}

// TestDiskScanRemovesOrphanTemps: temp files a crash left between write and
// rename are deleted at startup — they were never renamed into place, so
// nothing references them.
func TestDiskScanRemovesOrphanTemps(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, key(6).String()+diskTmpInfix+"7")
	if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Unrelated junk is left alone.
	junk := filepath.Join(dir, "README")
	if err := os.WriteFile(junk, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}

	d := openTestDisk(t, DiskConfig{Dir: dir})
	if dc := d.Counters(); dc.ScanOrphans != 1 || dc.Entries != 0 {
		t.Errorf("scan counters: %+v", dc)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphan temp survived the scan")
	}
	if _, err := os.Stat(junk); err != nil {
		t.Error("scan removed an unrelated file")
	}
}

// TestDiskENOSPCDegradesAndRecovers: a full disk flips the tier to
// memory-only degraded mode — lookups keep working, writes shed — and the
// periodic probe restores it once space returns.
func TestDiskENOSPCDegradesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	ffs, err := faults.NewFaultFS(nil, faults.FSConfig{ENOSPCRate: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	d := openTestDisk(t, DiskConfig{Dir: dir, FS: ffs, ReprobeInterval: 10 * time.Millisecond})

	d.Put(key(7), blob(7, 100))
	d.Flush()
	if s := d.State(); s != DiskDegraded {
		t.Fatalf("state after ENOSPC = %v, want degraded", s)
	}
	dc := d.Counters()
	if dc.WriteErrors != 1 || dc.DegradedCount != 1 || dc.State != "degraded" {
		t.Fatalf("counters after ENOSPC: %+v", dc)
	}

	// Degraded mode sheds writes instead of queuing them.
	d.Put(key(8), blob(8, 100))
	if dc := d.Counters(); dc.WritesDropped == 0 {
		t.Error("degraded Put was not dropped")
	}

	// "Free some space": heal the filesystem and wait for the probe.
	if err := ffs.SetConfig(faults.FSConfig{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.State() != DiskOK {
		if time.Now().After(deadline) {
			t.Fatal("disk tier never recovered after the fault cleared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Writes flow again.
	d.Put(key(9), blob(9, 100))
	d.Flush()
	if !d.Contains(key(9)) {
		t.Error("post-recovery write did not land")
	}
}

// TestDiskBudgetEviction: the disk tier byte-budgets itself with LRU
// eviction, removing both index entries and files.
func TestDiskBudgetEviction(t *testing.T) {
	dir := t.TempDir()
	// Each 100-byte blob frames to 100+header bytes; a ~3-entry budget.
	entrySize := int64(diskHeaderBase + len(testBlobCodec{}.Kind()) + 100)
	d := openTestDisk(t, DiskConfig{Dir: dir, MaxBytes: 3 * entrySize})

	for i := 10; i < 15; i++ {
		d.Put(key(i), blob(i, 100))
	}
	d.Flush()
	dc := d.Counters()
	if dc.Entries != 3 || dc.Evictions != 2 || dc.Bytes > 3*entrySize {
		t.Fatalf("counters after over-budget writes: %+v", dc)
	}
	// Oldest two evicted, newest three resident — on disk too.
	for i := 10; i < 12; i++ {
		if d.Contains(key(i)) {
			t.Errorf("key %d still indexed", i)
		}
		if _, err := os.Stat(filepath.Join(dir, key(i).String()+diskEntSuffix)); !os.IsNotExist(err) {
			t.Errorf("evicted entry %d still on disk", i)
		}
	}
	for i := 12; i < 15; i++ {
		if _, _, ok := d.Get(key(i)); !ok {
			t.Errorf("resident entry %d not served", i)
		}
	}
}

// TestDiskUnknownKindIsMissNotCorruption: an entry written under a kind
// this binary does not register (newer deploy, retired format) reads as a
// miss but is NOT quarantined — the file stays for the binary that speaks it.
func TestDiskUnknownKindIsMissNotCorruption(t *testing.T) {
	dir := t.TempDir()
	buf, err := encodeDiskEntry("future.format/v9", []byte("payload from the future"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, key(16).String()+diskEntSuffix)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	d := openTestDisk(t, DiskConfig{Dir: dir})
	// The scan verifies the checksum (it holds) and indexes the entry; the
	// read path then discovers no codec speaks the kind.
	if _, _, ok := d.Get(key(16)); ok {
		t.Fatal("unknown-kind entry was served")
	}
	if dc := d.Counters(); dc.Quarantined != 0 {
		t.Errorf("unknown kind quarantined: %+v", dc)
	}
	if _, err := os.Stat(path); err != nil {
		t.Error("unknown-kind entry file was removed")
	}
}

// TestDiskEntryFraming pins the header codec itself.
func TestDiskEntryFraming(t *testing.T) {
	payload := []byte("some payload")
	buf, err := encodeDiskEntry("k/v1", payload)
	if err != nil {
		t.Fatal(err)
	}
	kind, got, err := parseDiskEntry(buf)
	if err != nil || kind != "k/v1" || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %q %q %v", kind, got, err)
	}

	for name, corrupt := range map[string]func([]byte) []byte{
		"short":       func(b []byte) []byte { return b[:diskHeaderBase-1] },
		"magic":       func(b []byte) []byte { b[0] = 'X'; return b },
		"version":     func(b []byte) []byte { b[4] = 0xFF; return b },
		"truncated":   func(b []byte) []byte { return b[:len(b)-3] },
		"payload-bit": func(b []byte) []byte { b[len(b)-1] ^= 1; return b },
		// Flipping a bit in the payload-length field (right after the 4-byte
		// kind) must read as a torn write. A flip inside the kind string
		// itself parses — by design: it surfaces as an unknown kind, which
		// the read path treats as a miss, never as a wrong artifact.
		"length-bit": func(b []byte) []byte { b[12] ^= 1; return b },
	} {
		b := corrupt(append([]byte{}, buf...))
		if _, _, err := parseDiskEntry(b); err == nil {
			t.Errorf("%s corruption parsed cleanly", name)
		}
	}
	if _, err := encodeDiskEntry("", payload); err == nil {
		t.Error("empty kind encoded")
	}
	if _, err := encodeDiskEntry(strings.Repeat("k", diskMaxKindLen+1), payload); err == nil {
		t.Error("oversized kind encoded")
	}
}

// TestDiskEIOReadIsMiss: a filesystem read error (not corruption) is a
// plain miss — counted, logged, no quarantine, entry left indexed on disk.
func TestDiskEIOReadIsMiss(t *testing.T) {
	dir := t.TempDir()
	ffs, err := faults.NewFaultFS(nil, faults.FSConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := openTestDisk(t, DiskConfig{Dir: dir, FS: ffs})
	d.Put(key(17), blob(17, 100))
	d.Flush()

	if err := ffs.SetConfig(faults.FSConfig{ReadErrRate: 1, Seed: 13}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := d.Get(key(17)); ok {
		t.Fatal("EIO read served a value")
	}
	dc := d.Counters()
	if dc.ReadErrors != 1 || dc.Quarantined != 0 {
		t.Errorf("counters after EIO: %+v", dc)
	}
	// The fault clears; the entry is intact and serves again.
	if err := ffs.SetConfig(faults.FSConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := d.Get(key(17)); !ok {
		t.Error("entry lost after a transient EIO")
	}
}
