package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zatel/internal/faults"
)

// Disk entry on-disk framing: a fixed header followed by the codec
// payload. Every field the reader depends on is verified before a byte of
// payload is interpreted, and the payload checksum is verified on every
// read — a torn or bit-rotted entry is a miss (and quarantined), never a
// wrong artifact.
//
//	magic   [4]byte  "ZATL"
//	version uint16   disk format version (diskFormatVersion)
//	kindLen uint16   length of the codec kind tag
//	kind    []byte   versioned codec kind ("rt.workload/v1")
//	payload uint64   payload length in bytes
//	sum     [32]byte SHA-256 of the payload
//	payload []byte
const (
	diskMagic         = "ZATL"
	diskFormatVersion = 1
	diskMaxKindLen    = 255

	// Entry filename suffixes. Temps carry a sequence number so concurrent
	// writers never collide; quarantined entries are renamed aside (never
	// deleted) so operators can inspect the corruption.
	diskEntSuffix  = ".art"
	diskTmpInfix   = ".tmp"
	diskQuarInfix  = ".bad"
	diskProbeName  = "probe.tmp"
	diskHeaderBase = 4 + 2 + 2 + 8 + sha256.Size
)

// DiskState is the disk tier's health.
type DiskState int32

const (
	// DiskOK: writes and reads flow normally.
	DiskOK DiskState = iota
	// DiskDegraded: the disk shed to memory-only mode after a write
	// failure or a saturated write-behind queue; reads still work, writes
	// are dropped, and a periodic probe re-enables the tier when the disk
	// recovers.
	DiskDegraded
)

// String implements fmt.Stringer ("ok", "degraded").
func (s DiskState) String() string {
	if s == DiskDegraded {
		return "degraded"
	}
	return "ok"
}

// DiskConfig sizes the disk tier. Zero values select sane defaults.
type DiskConfig struct {
	// Dir is the cache directory (created if missing). Required.
	Dir string
	// MaxBytes is the on-disk byte budget (<= 0 = unbounded); least
	// recently used entries are evicted past it.
	MaxBytes int64
	// FS is the filesystem to run on (nil = the real OS filesystem);
	// tests thread a faults.FaultFS through here.
	FS faults.FS
	// QueueLen bounds the write-behind queue (0 = 64). A full queue flips
	// the tier to degraded instead of stalling GetOrBuild.
	QueueLen int
	// ReprobeInterval is how often a degraded tier probes the disk for
	// recovery (0 = 15s).
	ReprobeInterval time.Duration
}

// DiskCounters is a point-in-time snapshot of the disk tier's state for
// /metrics and /healthz.
type DiskCounters struct {
	// State is "ok" or "degraded" (the service reports "disabled" when no
	// disk tier is attached at all).
	State string
	// Entries and Bytes describe current valid residency; MaxBytes is the
	// budget (0 = unbounded).
	Entries  int
	Bytes    int64
	MaxBytes int64
	// Hits/Misses count Get outcomes; ReadErrors the reads that failed at
	// the filesystem (treated as misses).
	Hits, Misses, ReadErrors uint64
	// Writes counts entries durably written; WriteErrors failed write
	// attempts; WritesDropped writes shed because the tier was degraded or
	// the queue was full.
	Writes, WriteErrors, WritesDropped uint64
	// Quarantined counts entries renamed aside after failing integrity
	// verification (at startup scan or on read).
	Quarantined uint64
	// Evictions counts entries removed for the byte budget.
	Evictions uint64
	// ScanEntries/ScanOrphans report the startup scan: valid entries
	// indexed and orphaned temp files removed.
	ScanEntries, ScanOrphans uint64
	// DegradedCount counts transitions into degraded mode.
	DegradedCount uint64
}

// diskWrite is one queued write-behind operation.
type diskWrite struct {
	key   Digest
	value any
	codec Codec
}

// Disk is the persistent second tier of the artifact store: entries keyed
// by the same SHA-256 digests as the memory tier, written atomically
// (temp file → fsync → rename) through a bounded write-behind queue, and
// integrity-verified on every read. Construct with OpenDisk.
type Disk struct {
	dir     string
	fsys    faults.FS
	reprobe time.Duration

	queue   chan diskWrite
	pending sync.WaitGroup
	stop    chan struct{}
	wg      sync.WaitGroup

	state atomic.Int32

	mu     sync.Mutex
	closed bool
	idx    *lru // the valid entries and their file sizes
	tmpSeq uint64

	hits, misses, readErrors     atomic.Uint64
	writes, writeErrors, dropped atomic.Uint64
	quarantined                  atomic.Uint64
	scanEntries, scanOrphans     atomic.Uint64
	degradedCount                atomic.Uint64
}

// OpenDisk opens (creating if needed) the disk tier rooted at cfg.Dir: it
// scans the directory, indexes every entry that passes full integrity
// verification, removes orphaned temp files left by a crash mid-write, and
// quarantines entries whose header or checksum fails. The returned tier is
// ready for AttachDisk.
func OpenDisk(cfg DiskConfig) (*Disk, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: disk tier needs a directory")
	}
	fsys := cfg.FS
	if fsys == nil {
		fsys = faults.OSFS{}
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 64
	}
	if cfg.ReprobeInterval <= 0 {
		cfg.ReprobeInterval = 15 * time.Second
	}
	if err := fsys.MkdirAll(cfg.Dir); err != nil {
		return nil, fmt.Errorf("store: disk dir: %w", err)
	}
	d := &Disk{
		dir:     cfg.Dir,
		fsys:    fsys,
		reprobe: cfg.ReprobeInterval,
		queue:   make(chan diskWrite, cfg.QueueLen),
		stop:    make(chan struct{}),
	}
	d.idx = newLRU(cfg.MaxBytes, d.removeEvicted)
	if err := d.scan(); err != nil {
		return nil, err
	}
	d.wg.Add(2)
	go d.writer()
	go d.prober()
	return d, nil
}

// scan indexes the cache directory at startup. Validity is full
// verification — header and payload checksum — so a torn write or bitrot
// that happened while the process was down is caught before it can ever be
// served. Valid entries enter the LRU oldest-first by modification time.
func (d *Disk) scan() error {
	ents, err := d.fsys.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: disk scan: %w", err)
	}
	type found struct {
		key   Digest
		size  int64
		mtime time.Time
	}
	var valid []found
	for _, de := range ents {
		name := de.Name()
		switch {
		case de.IsDir():
			continue
		case strings.Contains(name, diskTmpInfix):
			// Orphaned temp: a crash between write and rename. Never
			// renamed into place, so safe to delete.
			if err := d.fsys.Remove(filepath.Join(d.dir, name)); err == nil {
				d.scanOrphans.Add(1)
			}
			continue
		case strings.Contains(name, diskQuarInfix):
			continue // previously quarantined; left for operator triage
		case !strings.HasSuffix(name, diskEntSuffix):
			continue
		}
		key, ok := digestFromName(name)
		if !ok {
			continue
		}
		data, err := d.fsys.ReadFile(filepath.Join(d.dir, name))
		if err != nil {
			d.readErrors.Add(1)
			continue
		}
		if _, _, err := parseDiskEntry(data); err != nil {
			d.quarantineFile(key, fmt.Errorf("startup scan: %w", err))
			continue
		}
		var mtime time.Time
		if info, err := de.Info(); err == nil {
			mtime = info.ModTime()
		}
		valid = append(valid, found{key: key, size: int64(len(data)), mtime: mtime})
	}
	sort.Slice(valid, func(i, j int) bool { return valid[i].mtime.Before(valid[j].mtime) })
	d.mu.Lock()
	for _, f := range valid {
		d.idx.put(f.key, nil, f.size)
		d.scanEntries.Add(1)
	}
	d.mu.Unlock()
	return nil
}

// entryPath returns the final path of key's entry.
func (d *Disk) entryPath(key Digest) string {
	return filepath.Join(d.dir, key.String()+diskEntSuffix)
}

// digestFromName parses "<64 hex>.art" (or a quarantined/temp variant
// sharing the prefix) back into a Digest.
func digestFromName(name string) (Digest, bool) {
	var key Digest
	if len(name) < 2*sha256.Size {
		return key, false
	}
	raw, err := hex.DecodeString(name[:2*sha256.Size])
	if err != nil {
		return key, false
	}
	copy(key[:], raw)
	return key, true
}

// encodeDiskEntry frames a payload with the integrity header.
func encodeDiskEntry(kind string, payload []byte) ([]byte, error) {
	if len(kind) == 0 || len(kind) > diskMaxKindLen {
		return nil, fmt.Errorf("store: disk entry kind %q length out of range", kind)
	}
	buf := make([]byte, 0, diskHeaderBase+len(kind)+len(payload))
	buf = append(buf, diskMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, diskFormatVersion)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(kind)))
	buf = append(buf, kind...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	buf = append(buf, payload...)
	return buf, nil
}

// parseDiskEntry verifies the header and payload checksum, returning the
// codec kind and payload. Any deviation — wrong magic, unknown version, a
// length that disagrees with the file, a checksum mismatch — is an error;
// callers treat it as corruption and quarantine the entry.
func parseDiskEntry(data []byte) (kind string, payload []byte, err error) {
	if len(data) < diskHeaderBase {
		return "", nil, fmt.Errorf("entry truncated at %d bytes (header is %d)", len(data), diskHeaderBase)
	}
	if string(data[:4]) != diskMagic {
		return "", nil, fmt.Errorf("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != diskFormatVersion {
		return "", nil, fmt.Errorf("unsupported disk format version %d", v)
	}
	kindLen := int(binary.LittleEndian.Uint16(data[6:8]))
	if kindLen == 0 || kindLen > diskMaxKindLen || len(data) < 8+kindLen+8+sha256.Size {
		return "", nil, fmt.Errorf("entry truncated inside header (kind length %d)", kindLen)
	}
	kind = string(data[8 : 8+kindLen])
	off := 8 + kindLen
	payloadLen := binary.LittleEndian.Uint64(data[off : off+8])
	off += 8
	var want [sha256.Size]byte
	copy(want[:], data[off:off+sha256.Size])
	off += sha256.Size
	payload = data[off:]
	if uint64(len(payload)) != payloadLen {
		return "", nil, fmt.Errorf("payload length %d disagrees with header %d (torn write)", len(payload), payloadLen)
	}
	if sum := sha256.Sum256(payload); sum != want {
		return "", nil, fmt.Errorf("payload checksum mismatch (%x != %x)", sum[:4], want[:4])
	}
	return kind, payload, nil
}

// Get returns the decoded artifact for key if a valid entry exists. A
// filesystem read error is a miss; a failed verification or decode
// quarantines the entry and is a miss — corrupt entries are rebuilt, never
// served.
func (d *Disk) Get(key Digest) (any, int64, bool) {
	d.mu.Lock()
	_, ok := d.idx.get(key)
	d.mu.Unlock()
	var data []byte
	if ok {
		data, ok = d.read(key)
	}
	if !ok {
		d.misses.Add(1)
		return nil, 0, false
	}
	v, size, _, err := DecodeFramed(data)
	switch {
	case errors.Is(err, errUnknownKind):
		// A format this binary does not speak (newer or retired kind): not
		// corruption, so leave the file, but stop indexing it.
		d.forget(key)
	case err != nil:
		d.quarantine(key, err)
	}
	if err != nil {
		d.misses.Add(1)
		return nil, 0, false
	}
	d.hits.Add(1)
	return v, size, true
}

// ReadFramed returns the raw framed bytes of key's entry after full
// verification (header and payload checksum), for serving to cluster peers
// without a decode/re-encode round trip. Corruption quarantines exactly
// like Get; hit/miss counters are untouched — peer serves are not local
// lookups and are counted by the HTTP handler instead.
func (d *Disk) ReadFramed(key Digest) ([]byte, bool) {
	if !d.Contains(key) {
		return nil, false
	}
	data, ok := d.read(key)
	if !ok {
		return nil, false
	}
	if _, _, err := parseDiskEntry(data); err != nil {
		d.quarantine(key, err)
		return nil, false
	}
	return data, true
}

// read returns the file of an indexed entry. An entry whose file is gone
// (evicted or removed underneath us) is forgotten; any other read error is
// counted. Both are misses.
func (d *Disk) read(key Digest) ([]byte, bool) {
	data, err := d.fsys.ReadFile(d.entryPath(key))
	if err == nil {
		return data, true
	}
	if errors.Is(err, fs.ErrNotExist) {
		d.forget(key)
	} else {
		d.readErrors.Add(1)
		slog.Warn("store: disk read failed, treating as miss", "key", key.Short(), "err", err)
	}
	return nil, false
}

// Put queues the artifact for write-behind persistence. It never blocks:
// with the tier degraded or the queue full the write is shed (the artifact
// stays memory-resident; a later rebuild re-queues it). Values no codec
// can serialize are ignored.
func (d *Disk) Put(key Digest, v any) {
	c := codecForValue(v)
	if c == nil {
		return
	}
	if DiskState(d.state.Load()) == DiskDegraded {
		d.dropped.Add(1)
		return
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.dropped.Add(1)
		return
	}
	if _, resident := d.idx.peek(key); resident {
		d.mu.Unlock()
		return
	}
	d.pending.Add(1)
	select {
	case d.queue <- diskWrite{key: key, value: v, codec: c}:
		d.mu.Unlock()
	default:
		d.mu.Unlock()
		d.pending.Done()
		d.dropped.Add(1)
		d.setDegraded(errors.New("write-behind queue full (slow disk)"))
	}
}

// writer is the single write-behind goroutine: it encodes off the request
// path and lands entries with the atomic temp → fsync → rename discipline.
func (d *Disk) writer() {
	defer d.wg.Done()
	for w := range d.queue {
		d.writeEntry(w)
		d.pending.Done()
	}
}

func (d *Disk) writeEntry(w diskWrite) {
	payload, err := w.codec.Encode(w.value)
	if err != nil {
		d.writeErrors.Add(1)
		slog.Warn("store: disk encode failed", "key", w.key.Short(), "kind", w.codec.Kind(), "err", err)
		return
	}
	buf, err := encodeDiskEntry(w.codec.Kind(), payload)
	if err != nil {
		d.writeErrors.Add(1)
		return
	}
	d.mu.Lock()
	d.tmpSeq++
	seq := d.tmpSeq
	d.mu.Unlock()
	tmp := filepath.Join(d.dir, fmt.Sprintf("%s%s%d", w.key.String(), diskTmpInfix, seq))
	if err := d.fsys.WriteFile(tmp, buf); err != nil {
		d.writeErrors.Add(1)
		d.fsys.Remove(tmp)
		d.setDegraded(fmt.Errorf("write: %w", err))
		return
	}
	if err := d.fsys.Rename(tmp, d.entryPath(w.key)); err != nil {
		d.writeErrors.Add(1)
		d.fsys.Remove(tmp)
		d.setDegraded(fmt.Errorf("rename: %w", err))
		return
	}
	d.writes.Add(1)
	d.mu.Lock()
	d.idx.put(w.key, nil, int64(len(buf)))
	d.mu.Unlock()
}

// removeEvicted deletes the file of an entry the index evicted for the
// byte budget; d.mu is held.
func (d *Disk) removeEvicted(key Digest) {
	if err := d.fsys.Remove(d.entryPath(key)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		slog.Warn("store: disk eviction remove failed (next scan re-indexes)",
			"key", key.Short(), "err", err)
	}
}

// forget drops key from the index without touching the file.
func (d *Disk) forget(key Digest) {
	d.mu.Lock()
	d.idx.remove(key)
	d.mu.Unlock()
}

// quarantine renames a corrupt entry aside (never deletes it — the
// corruption evidence is what operators triage, see OPERATIONS.md) and
// removes it from the index so it reads as a miss and gets rebuilt.
func (d *Disk) quarantine(key Digest, cause error) {
	d.forget(key)
	d.quarantineFile(key, cause)
}

// quarantineFile performs the rename-aside and accounting; the index must
// already exclude key (or never have included it, as during scan).
func (d *Disk) quarantineFile(key Digest, cause error) {
	d.mu.Lock()
	d.tmpSeq++
	seq := d.tmpSeq
	d.mu.Unlock()
	aside := filepath.Join(d.dir, fmt.Sprintf("%s%s%d", key.String(), diskQuarInfix, seq))
	if err := d.fsys.Rename(d.entryPath(key), aside); err != nil {
		// Renaming the evidence failed; removing the corrupt entry still
		// protects correctness (it must not be served again).
		d.fsys.Remove(d.entryPath(key))
		aside = "(removed: rename failed)"
	}
	d.quarantined.Add(1)
	slog.Warn("store: corrupt disk entry quarantined",
		"key", key.Short(), "quarantined_as", filepath.Base(aside), "cause", cause)
}

// setDegraded flips the tier to memory-only degraded mode (idempotent).
func (d *Disk) setDegraded(cause error) {
	if d.state.CompareAndSwap(int32(DiskOK), int32(DiskDegraded)) {
		d.degradedCount.Add(1)
		slog.Warn("store: disk tier degraded to memory-only mode",
			"dir", d.dir, "cause", cause, "reprobe", d.reprobe)
	}
}

// prober periodically re-probes a degraded disk with a small durable write
// and flips the tier back to ok when it succeeds.
func (d *Disk) prober() {
	defer d.wg.Done()
	t := time.NewTicker(d.reprobe)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			if DiskState(d.state.Load()) != DiskDegraded {
				continue
			}
			probe := filepath.Join(d.dir, diskProbeName)
			if err := d.fsys.WriteFile(probe, []byte(diskMagic)); err != nil {
				continue
			}
			d.fsys.Remove(probe)
			if d.state.CompareAndSwap(int32(DiskDegraded), int32(DiskOK)) {
				slog.Info("store: disk tier recovered", "dir", d.dir)
			}
		}
	}
}

// State returns the tier's health.
func (d *Disk) State() DiskState { return DiskState(d.state.Load()) }

// Flush blocks until every write queued so far has been attempted. Tests
// and shutdown use it; the serving path never waits on the disk.
func (d *Disk) Flush() { d.pending.Wait() }

// Close drains the write-behind queue (queued artifacts are durably
// written) and stops the background goroutines. The tier must not be used
// after Close.
func (d *Disk) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	close(d.queue)
	close(d.stop)
	d.wg.Wait()
	return nil
}

// Counters snapshots the disk tier's observability state.
func (d *Disk) Counters() DiskCounters {
	d.mu.Lock()
	entries, bytes, budget, evictions := d.idx.len(), d.idx.bytes, d.idx.max, d.idx.evictions
	d.mu.Unlock()
	return DiskCounters{
		State:         d.State().String(),
		Entries:       entries,
		Bytes:         bytes,
		MaxBytes:      budget,
		Hits:          d.hits.Load(),
		Misses:        d.misses.Load(),
		ReadErrors:    d.readErrors.Load(),
		Writes:        d.writes.Load(),
		WriteErrors:   d.writeErrors.Load(),
		WritesDropped: d.dropped.Load(),
		Quarantined:   d.quarantined.Load(),
		Evictions:     evictions,
		ScanEntries:   d.scanEntries.Load(),
		ScanOrphans:   d.scanOrphans.Load(),
		DegradedCount: d.degradedCount.Load(),
	}
}

// Contains reports whether key is indexed, without counters or a read.
func (d *Disk) Contains(key Digest) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.idx.peek(key)
	return ok
}
