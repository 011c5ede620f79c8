package store

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"

	"zatel/internal/obs"
)

// Outcome classifies how one lookup was served.
type Outcome int

const (
	// Miss: this call ran the build itself (or, for Get, found nothing).
	Miss Outcome = iota
	// Hit: the artifact was already resident in memory.
	Hit
	// Coalesced: another call was already building the same key; this one
	// waited and shared the outcome without running the build.
	Coalesced
	// DiskHit: the artifact was loaded (and integrity-verified) from the
	// disk tier instead of being rebuilt, and is now memory-resident.
	DiskHit
	// PeerHit: the artifact was fetched (and integrity-verified) from the
	// owning cluster peer instead of being rebuilt, and is now resident in
	// the local memory and disk tiers.
	PeerHit
)

// String implements fmt.Stringer ("miss", "hit", "coalesced", "disk",
// "peer").
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	case DiskHit:
		return "disk"
	case PeerHit:
		return "peer"
	default:
		return "miss"
	}
}

// Depth says how far down the tier chain Get looks.
type Depth int

const (
	// Memory is the memory tier alone: a counted hit or nothing. It never
	// waits, reads a lower tier or builds, so a caller that falls back to
	// GetOrBuild keeps what those need (a deadline, a tracer) off its hit
	// path.
	Memory Depth = iota
	// Chain is every tier short of building: memory, an in-flight build of
	// the key (joined), the disk tier, then the peer tier.
	Chain
)

// Counters is a point-in-time snapshot of a store's observability state.
// The monotonic totals feed the /metrics Prometheus exposition; the gauges
// describe current occupancy.
type Counters struct {
	// Hits counts lookups served from a resident artifact.
	Hits uint64
	// Misses counts lookups that ran the build themselves.
	Misses uint64
	// Coalesced counts lookups that piggybacked on an in-flight build.
	Coalesced uint64
	// Builds counts build executions (== Misses; kept separate so the
	// relationship is checkable) and BuildErrors the ones that failed.
	Builds      uint64
	BuildErrors uint64
	// Evictions counts artifacts dropped to stay within MaxBytes.
	Evictions uint64
	// DiskHits counts lookups served from the disk tier (also reflected in
	// the disk tier's own counters).
	DiskHits uint64
	// PeerHits counts lookups served from the peer tier; PeerMisses the
	// peer consultations that came back empty (the fetcher's own counters
	// break the misses down by cause).
	PeerHits, PeerMisses uint64
	// Inflight is the number of builds currently executing.
	Inflight int
	// Entries and Bytes describe current residency; MaxBytes is the budget
	// (0 = unbounded).
	Entries  int
	Bytes    int64
	MaxBytes int64
}

// flight is one in-progress build: the first caller for a key builds,
// everyone else waits on done and shares value/err.
type flight struct {
	done  chan struct{}
	value any
	err   error
}

// wait blocks until the flight lands or the waiter's own ctx fires.
func (f *flight) wait(ctx context.Context, key Digest) (any, Outcome, error) {
	_, sp := keySpan(ctx, "store.coalesce", key)
	defer sp.End()
	select {
	case <-f.done:
		return f.value, Coalesced, f.err
	case <-ctx.Done():
		sp.SetAttr("error", ctx.Err())
		return nil, Coalesced, ctx.Err()
	}
}

// Store is a content-addressed, coalescing artifact cache: a byte-budgeted
// memory tier in front of two optional lower tiers, disk then peer. The
// zero value is not usable; construct with New.
type Store struct {
	mu       sync.Mutex
	mem      *lru
	inflight map[Digest]*flight

	// disk and peers are the attached lower tiers, read under mu; a lookup
	// keeps using the pair it read.
	disk  *Disk
	peers PeerFetcher

	hits, misses, coalesced uint64
	builds, buildErrors     uint64
	// tierHits and tierMisses count lower-tier answers by their outcome.
	tierHits, tierMisses [PeerHit + 1]uint64
}

// New returns an empty store that evicts least-recently-used artifacts once
// resident bytes exceed maxBytes (<= 0 means unbounded).
func New(maxBytes int64) *Store {
	return &Store{mem: newLRU(maxBytes, nil), inflight: make(map[Digest]*flight)}
}

// defaultStore is the process-wide shared store: rt workload traces, core
// quantized heatmaps and references land here unless a caller injects its
// own store, so every CLI and test in one process amortises the same
// artifacts. Unbounded by default (the pre-store behaviour); cap it with
// Default().SetMaxBytes, e.g. from a -store-size flag.
var defaultStore = New(0)

// Default returns the process-wide shared store.
func Default() *Store { return defaultStore }

// Sizer is implemented by artifacts that know their own resident size.
// The store consults it when a builder or codec reports a non-positive size.
type Sizer interface {
	// SizeBytes returns the artifact's resident size in bytes.
	SizeBytes() int64
}

// sizeOf is size, or the artifact's own account of it when size <= 0.
func sizeOf(v any, size int64) int64 {
	if sz, ok := v.(Sizer); ok && size <= 0 {
		return sz.SizeBytes()
	}
	return size
}

// errAbsent is a Get that found the key in none of the tiers it looked in.
var errAbsent = errors.New("store: artifact absent")

// GetOrBuild returns the artifact for key from the first tier that has it,
// and otherwise runs build, at most once per key across all concurrent
// callers. The build receives ctx; its failure is returned to the builder
// and every coalesced waiter but is not cached, so a later call retries.
// Waiters stop waiting when their own ctx fires (the build itself keeps
// running for the callers still interested). A build that panics is
// converted into an error rather than crashing the caller.
//
// build returns the artifact and its resident size in bytes, which is what
// the LRU budget accounts. When build reports a non-positive size and the
// artifact implements Sizer, the store asks the artifact itself — types
// with arena-backed storage (rt.Workload) report exact footprints
// that a builder-side estimate would only approximate. Artifacts larger
// than the whole budget are returned but not retained.
func (s *Store) GetOrBuild(ctx context.Context, key Digest, build func(ctx context.Context) (any, int64, error)) (any, Outcome, error) {
	return s.lookup(ctx, key, Chain, build)
}

// Get is GetOrBuild without the build, looking as deep as depth says. The
// service's memory-hit fast path asks for Memory; its cluster routing asks
// for Chain on non-owner nodes, where a hit anywhere in the fleet serves
// locally and a miss forwards the request to the owner instead of
// duplicating the build. ok is false when no tier had the artifact, or when
// the build Get joined failed.
func (s *Store) Get(ctx context.Context, key Digest, depth Depth) (v any, outcome Outcome, ok bool) {
	v, outcome, err := s.lookup(ctx, key, depth, nil)
	return v, outcome, err == nil
}

// lookup is the one path every read takes: memory, an in-flight build,
// disk, the peer, then (given a build) the build. Only a lookup that may
// build registers a flight, so two racing Gets may both read disk or ask
// the peer; both are idempotent and bounded by one read each. An answer is
// kept by memory, and a peer hit or a build is also queued for disk.
func (s *Store) lookup(ctx context.Context, key Digest, depth Depth, build func(ctx context.Context) (any, int64, error)) (any, Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if v, ok := s.mem.get(key); ok {
		s.hits++
		s.mu.Unlock()
		_, sp := keySpan(ctx, "store.hit", key)
		sp.End()
		return v, Hit, nil
	}
	if depth == Memory {
		s.mu.Unlock()
		return nil, Miss, errAbsent
	}
	if f, ok := s.inflight[key]; ok {
		s.coalesced++
		s.mu.Unlock()
		return f.wait(ctx, key)
	}
	var f *flight
	if build != nil {
		f = &flight{done: make(chan struct{})}
		s.inflight[key] = f
	}
	disk, peers := s.disk, s.peers
	s.mu.Unlock()

	v, size, outcome, found := s.descend(ctx, key, disk, peers)
	var err error
	if !found {
		if build == nil {
			return nil, Miss, errAbsent
		}
		v, size, err = s.build(ctx, key, build)
	}

	// Landing the flight and making the artifact resident is one critical
	// section, so no lookup sees the key in neither place.
	s.mu.Lock()
	if f != nil {
		delete(s.inflight, key)
	}
	if err == nil {
		s.mem.put(key, v, sizeOf(v, size))
	}
	s.mu.Unlock()
	if f != nil {
		f.value, f.err = v, err
		close(f.done)
	}
	if err != nil {
		return nil, Miss, err
	}
	if disk != nil && outcome != DiskHit {
		disk.Put(key, v)
	}
	return v, outcome, nil
}

// descend asks the disk tier, then the peer tier, and returns the first
// answer; found is false when neither had key.
func (s *Store) descend(ctx context.Context, key Digest, disk *Disk, peers PeerFetcher) (v any, size int64, outcome Outcome, found bool) {
	if disk != nil {
		if v, size, ok := disk.Get(key); s.tierAnswered(ctx, key, DiskHit, "store.diskhit", ok) {
			return v, size, DiskHit, true
		}
	}
	if peers != nil {
		if v, size, ok := peers.Fetch(ctx, key); s.tierAnswered(ctx, key, PeerHit, "store.peerhit", ok) {
			return v, size, PeerHit, true
		}
	}
	return nil, 0, Miss, false
}

// tierAnswered counts a lower tier's answer, records a hit's span, and
// returns ok.
func (s *Store) tierAnswered(ctx context.Context, key Digest, tier Outcome, span string, ok bool) bool {
	s.mu.Lock()
	if ok {
		s.tierHits[tier]++
	} else {
		s.tierMisses[tier]++
	}
	s.mu.Unlock()
	if ok {
		_, sp := keySpan(ctx, span, key)
		sp.End()
	}
	return ok
}

// build runs the builder for a key no tier holds, in a store.build span.
func (s *Store) build(ctx context.Context, key Digest, build func(ctx context.Context) (any, int64, error)) (any, int64, error) {
	s.mu.Lock()
	s.misses++
	s.builds++
	s.mu.Unlock()
	bctx, sp := keySpan(ctx, "store.build", key)
	v, size, err := runBuild(bctx, build)
	if err != nil {
		sp.SetAttr("error", err)
		s.mu.Lock()
		s.buildErrors++
		s.mu.Unlock()
		v = nil
	} else {
		sp.SetAttr("bytes", size)
	}
	sp.End()
	return v, size, err
}

// keySpan opens a store span annotated with the key. An untraced context
// gets the nil span without the digest ever being hex-encoded.
func keySpan(ctx context.Context, name string, key Digest) (context.Context, *obs.Span) {
	ctx, sp := obs.StartSpan(ctx, name)
	if sp != nil {
		sp.SetAttr("key", key.Short())
	}
	return ctx, sp
}

// runBuild invokes build with panic capture, mirroring the runner pool's
// fail-soft contract: one bad artifact build must not take down a server.
// The builder's stack is captured at the recovery point — the error alone
// would lose the frames that identify which builder blew up — logged, and
// carried in the returned error for callers that surface it.
func runBuild(ctx context.Context, build func(ctx context.Context) (any, int64, error)) (v any, size int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			slog.Error("store: build panicked", "panic", r, "stack", string(stack))
			v, size, err = nil, 0, fmt.Errorf("store: build panicked: %v\n%s", r, stack)
		}
	}()
	return build(ctx)
}

// AttachDisk installs d as the disk tier, consulted after memory and before
// any peer tier; builds and peer hits are persisted through its write-behind
// queue. Pass nil to detach.
func (s *Store) AttachDisk(d *Disk) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disk = d
}

// AttachPeers installs f as the last tier: lookups that miss memory and
// disk ask the owning peer before building. Pass nil to detach.
func (s *Store) AttachPeers(f PeerFetcher) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peers = f
}

// Export returns key's artifact as verified frame bytes, the form
// /v1/artifacts serves to peers. A memory-resident value is encoded through
// its codec; otherwise the disk tier hands out its entry as stored. Export
// never builds, never asks a peer (the asking peer is the one that would
// answer) and moves no counters: peer serves are counted by the HTTP
// handler.
func (s *Store) Export(key Digest) ([]byte, bool) {
	s.mu.Lock()
	v, resident := s.mem.peek(key)
	disk := s.disk
	s.mu.Unlock()
	if resident {
		if data, _, err := EncodeFramed(v); err == nil {
			return data, true
		}
		// No codec (or encode failure): the disk may still hold a servable
		// entry from an earlier binary.
	}
	if disk == nil {
		return nil, false
	}
	return disk.ReadFramed(key)
}

// Contains reports whether key is resident in memory, without touching LRU
// order or counters.
func (s *Store) Contains(key Digest) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.mem.peek(key)
	return ok
}

// SetMaxBytes replaces the memory byte budget (<= 0 = unbounded) and
// immediately evicts down to it.
func (s *Store) SetMaxBytes(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem.setMax(n)
}

// Snapshot returns the memory tier's counters.
func (s *Store) Snapshot() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.countersLocked()
}

func (s *Store) countersLocked() Counters {
	return Counters{
		Hits:        s.hits,
		Misses:      s.misses,
		Coalesced:   s.coalesced,
		Builds:      s.builds,
		BuildErrors: s.buildErrors,
		Evictions:   s.mem.evictions,
		DiskHits:    s.tierHits[DiskHit],
		PeerHits:    s.tierHits[PeerHit],
		PeerMisses:  s.tierMisses[PeerHit],
		Inflight:    len(s.inflight),
		Entries:     s.mem.len(),
		Bytes:       s.mem.bytes,
		MaxBytes:    s.mem.max,
	}
}

// Stats is one snapshot of every tier, taken in a single call so /healthz
// and /metrics can never disagree mid-scrape about which tiers exist.
type Stats struct {
	// Mem is the memory tier: LRU occupancy and lookup outcomes, including
	// the DiskHits/PeerHits/PeerMisses the lower tiers produced through it.
	Mem Counters
	// DiskEnabled reports whether a disk tier is attached; Disk is its
	// snapshot (zero when disabled).
	DiskEnabled bool
	Disk        DiskCounters
	// PeerEnabled reports whether a peer tier is attached; Peer is its
	// snapshot (zero when disabled).
	PeerEnabled bool
	Peer        PeerCounters
}

// Stats snapshots every attached tier at once.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{Mem: s.countersLocked()}
	disk, peers := s.disk, s.peers
	s.mu.Unlock()
	if disk != nil {
		st.Disk, st.DiskEnabled = disk.Counters(), true
	}
	if peers != nil {
		st.Peer, st.PeerEnabled = peers.Counters(), true
	}
	return st
}

// ParseSize parses a human byte-size flag value: a plain integer is bytes,
// and the suffixes are binary multiples ("64K"/"64KiB"/"64KB" = 64·1024,
// likewise M/G/T). "0" means unbounded. A size that overflows int64 is an
// error, never a wrapped value.
func ParseSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	if t == "" {
		return 0, fmt.Errorf("store: empty size")
	}
	mult := int64(1)
	for _, suf := range []struct {
		tag string
		n   int64
	}{
		{"TIB", 1 << 40}, {"TB", 1 << 40}, {"T", 1 << 40},
		{"GIB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
		{"MIB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
		{"KIB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
		{"B", 1},
	} {
		if strings.HasSuffix(t, suf.tag) {
			mult = suf.n
			t = strings.TrimSpace(strings.TrimSuffix(t, suf.tag))
			break
		}
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("store: bad size %q: %w", s, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("store: negative size %q", s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("store: size %q overflows int64", s)
	}
	return n * mult, nil
}
