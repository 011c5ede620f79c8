package store

import (
	"container/list"
	"context"
	"fmt"
	"log/slog"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"zatel/internal/obs"
)

// Outcome classifies how one GetOrBuild call was served.
type Outcome int

const (
	// Miss: this call ran the build itself.
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

// entry is one resident artifact in the LRU list.
type entry struct {
	key   Digest
	value any
	size  int64
}

// Store is a bounded, content-addressed, coalescing artifact cache. The
// zero value is not usable; construct with New.
type Store struct {
	mu       sync.Mutex
	max      int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[Digest]*list.Element
	inflight map[Digest]*flight

	hits, misses, coalesced uint64
	builds, buildErrors     uint64
	evictions, diskHits     uint64
	peerHits, peerMisses    uint64

	// disk is the optional persistent second tier (nil = memory-only).
	// Atomic so AttachDisk is safe against concurrent GetOrBuild.
	disk atomic.Pointer[Disk]
	// peers is the optional third tier: the cluster peer fetcher (nil =
	// single-node). Atomic so AttachPeers is safe against concurrent
	// GetOrBuild.
	peers atomic.Pointer[peerTier]
}

// New returns an empty store that evicts least-recently-used artifacts once
// resident bytes exceed maxBytes (<= 0 means unbounded).
func New(maxBytes int64) *Store {
	return &Store{
		max:      maxBytes,
		ll:       list.New(),
		items:    make(map[Digest]*list.Element),
		inflight: make(map[Digest]*flight),
	}
}

// defaultStore is the process-wide shared store: rt workload traces and
// core quantized heatmaps land here unless a caller injects its own store,
// so every CLI and test in one process amortises the same artifacts.
// Unbounded by default (the pre-store behaviour); cap it with
// Default().SetMaxBytes, e.g. from a -store-size flag.
var defaultStore = New(0)

// Default returns the process-wide shared store.
func Default() *Store { return defaultStore }

// Sizer is implemented by artifacts that know their own resident size.
// GetOrBuild consults it when the builder reports a non-positive size.
type Sizer interface {
	// SizeBytes returns the artifact's resident size in bytes.
	SizeBytes() int64
}

// GetOrBuild returns the artifact for key, running build at most once per
// key across all concurrent callers. The build receives ctx; its failure is
// returned to the builder and every coalesced waiter but is not cached, so
// a later call retries. Waiters stop waiting when their own ctx fires (the
// build itself keeps running for the callers still interested). A build
// that panics is converted into an error rather than crashing the caller.
//
// build returns the artifact and its resident size in bytes, which is what
// the LRU budget accounts. When build reports a non-positive size and the
// artifact implements Sizer, the store asks the artifact itself — types
// with arena-backed storage (rt.Workload, bvh.BVH) report exact footprints
// that a builder-side estimate would only approximate. Artifacts larger
// than the whole budget are returned but not retained.
func (s *Store) GetOrBuild(ctx context.Context, key Digest, build func(ctx context.Context) (any, int64, error)) (any, Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if v, ok := s.hitLocked(key); ok {
		s.mu.Unlock()
		_, sp := keySpan(ctx, "store.hit", key)
		sp.End()
		return v, Hit, nil
	}
	if f, ok := s.inflight[key]; ok {
		s.coalesced++
		s.mu.Unlock()
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
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()

	// Disk tier: checked inside the flight so concurrent callers coalesce
	// onto one disk read exactly as they would onto one build. A disk hit
	// is re-admitted to the memory tier; any invalid entry was quarantined
	// by the tier itself and reads as a miss here.
	if d := s.disk.Load(); d != nil {
		if v, size, ok := d.Get(key); ok {
			s.mu.Lock()
			delete(s.inflight, key)
			s.diskHits++
			s.insertLocked(key, v, size)
			s.mu.Unlock()
			f.value = v
			close(f.done)
			_, sp := keySpan(ctx, "store.diskhit", key)
			sp.End()
			return v, DiskHit, nil
		}
	}

	// Peer tier: after disk, before building — an artifact any fleet member
	// already built is fetched by digest, integrity-verified and promoted,
	// exactly once per flight. Peer failure of any kind falls through to the
	// local build below; the fleet degrading never surfaces as an error.
	if v, size, ok := s.fetchPeer(ctx, key); ok {
		s.mu.Lock()
		delete(s.inflight, key)
		s.insertLocked(key, v, size)
		s.mu.Unlock()
		f.value = v
		close(f.done)
		_, sp := keySpan(ctx, "store.peerhit", key)
		sp.End()
		if d := s.disk.Load(); d != nil {
			d.Put(key, v)
		}
		return v, PeerHit, nil
	}

	s.mu.Lock()
	s.misses++
	s.builds++
	s.mu.Unlock()

	bctx, sp := keySpan(ctx, "store.build", key)
	v, size, err := runBuild(bctx, build)
	if err != nil {
		sp.SetAttr("error", err)
	} else {
		sp.SetAttr("bytes", size)
	}
	sp.End()

	s.mu.Lock()
	delete(s.inflight, key)
	if err != nil {
		s.buildErrors++
	} else {
		if size <= 0 {
			if sz, ok := v.(Sizer); ok {
				size = sz.SizeBytes()
			}
		}
		f.value = v
		s.insertLocked(key, v, size)
	}
	f.err = err
	s.mu.Unlock()
	close(f.done)
	if err != nil {
		return nil, Miss, err
	}
	// Write-behind to the disk tier: never blocks the caller; a degraded
	// or saturated tier sheds the write and the artifact stays memory-only.
	if d := s.disk.Load(); d != nil {
		d.Put(key, v)
	}
	return v, Miss, nil
}

// hitLocked is the resident lookup every entry point starts with: a hit is
// counted and moved to the front of the LRU.
func (s *Store) hitLocked(key Digest) (any, bool) {
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	s.hits++
	return el.Value.(*entry).value, true
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

// Resident is GetOrBuild's memory hit on its own: it never waits, reads a
// lower tier or builds. A caller that falls back to GetOrBuild on false keeps
// what those need (a deadline, a tracer) off its hit path.
func (s *Store) Resident(ctx context.Context, key Digest) (any, bool) {
	s.mu.Lock()
	v, ok := s.hitLocked(key)
	s.mu.Unlock()
	if ok {
		_, sp := keySpan(ctx, "store.hit", key)
		sp.End()
	}
	return v, ok
}

// AttachDisk installs d as the store's persistent second tier: memory
// misses consult it before building, and successful builds are persisted
// through its write-behind queue. Pass nil to detach.
func (s *Store) AttachDisk(d *Disk) { s.disk.Store(d) }

// Disk returns the attached disk tier (nil = memory-only).
func (s *Store) Disk() *Disk { return s.disk.Load() }

// DiskCounters snapshots the attached disk tier's counters; ok is false
// when no tier is attached.
func (s *Store) DiskCounters() (DiskCounters, bool) {
	d := s.disk.Load()
	if d == nil {
		return DiskCounters{}, false
	}
	return d.Counters(), true
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

// insertLocked makes the artifact resident as MRU and evicts from the LRU
// tail until the byte budget holds again. The new artifact sits at the
// front, so it is evicted only when it alone exceeds the whole budget.
func (s *Store) insertLocked(key Digest, v any, size int64) {
	if size < 0 {
		size = 0
	}
	if el, ok := s.items[key]; ok {
		// Cannot happen through GetOrBuild (one flight per key guards the
		// insert), but keep the invariant safe under future callers.
		e := el.Value.(*entry)
		s.bytes += size - e.size
		e.value, e.size = v, size
		s.ll.MoveToFront(el)
	} else {
		s.items[key] = s.ll.PushFront(&entry{key: key, value: v, size: size})
		s.bytes += size
	}
	s.evictOverBudgetLocked()
}

func (s *Store) evictOverBudgetLocked() {
	for s.max > 0 && s.bytes > s.max && s.ll.Len() > 0 {
		el := s.ll.Back()
		e := el.Value.(*entry)
		s.ll.Remove(el)
		delete(s.items, e.key)
		s.bytes -= e.size
		s.evictions++
	}
}

// Contains reports whether key is resident, without touching LRU order or
// counters.
func (s *Store) Contains(key Digest) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.items[key]
	return ok
}

// SetMaxBytes replaces the byte budget (<= 0 = unbounded) and immediately
// evicts down to it.
func (s *Store) SetMaxBytes(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.max = n
	s.evictOverBudgetLocked()
}

// Snapshot returns the current counters.
func (s *Store) Snapshot() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Counters{
		Hits:        s.hits,
		Misses:      s.misses,
		Coalesced:   s.coalesced,
		Builds:      s.builds,
		BuildErrors: s.buildErrors,
		Evictions:   s.evictions,
		DiskHits:    s.diskHits,
		PeerHits:    s.peerHits,
		PeerMisses:  s.peerMisses,
		Inflight:    len(s.inflight),
		Entries:     s.ll.Len(),
		Bytes:       s.bytes,
		MaxBytes:    s.max,
	}
}

// ParseSize parses a human byte-size flag value: a plain integer is bytes,
// and the suffixes are binary multiples ("64K"/"64KiB"/"64KB" = 64·1024,
// likewise M/G/T). "0" means unbounded.
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
	return n * mult, nil
}
