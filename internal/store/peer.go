package store

import (
	"context"
	"fmt"
)

// PeerCounters is a point-in-time snapshot of the peer tier's observability
// state, produced by the attached PeerFetcher (internal/cluster). Fetch
// outcomes are disjoint: every Fetch that actually left the node lands in
// exactly one of Hits, Misses, Errors or Rejects.
type PeerCounters struct {
	// Peers is the ring size including this node; Healthy how many peers
	// the prober currently considers reachable (this node included).
	Peers, Healthy int
	// Fetches counts artifact fetches issued to owning peers; Hits the ones
	// that returned a verified, decodable artifact; Misses the 404s (the
	// owner does not have the artifact either).
	Fetches, Hits, Misses uint64
	// Errors counts transport failures and unexpected statuses; Rejects
	// counts responses that failed frame verification or codec decode — a
	// tampered or torn payload is never promoted.
	Errors, Rejects uint64
	// Skipped counts fetches not attempted because the owner was marked
	// unhealthy (the caller degrades straight to a local build).
	Skipped uint64
	// Proxied counts whole /v1/predict requests forwarded to the owning
	// peer; ProxyErrors the forwards that failed and fell back to a local
	// build; LocalFallbacks every build run locally because the owner was
	// unhealthy or the forward failed.
	Proxied, ProxyErrors, LocalFallbacks uint64
}

// PeerFetcher is the peer artifact tier: on a local miss the store asks it
// for the artifact by digest. Implementations (internal/cluster) locate the
// owning peer on the consistent-hash ring, fetch the framed entry over
// HTTP, and integrity-verify + decode it. Fetch must never block past its
// own bounded timeout and reports ok=false for every failure — peer
// trouble degrades to a local build, never an error.
type PeerFetcher interface {
	// Fetch returns the decoded artifact and its resident size, or ok=false
	// when no peer can supply it.
	Fetch(ctx context.Context, key Digest) (v any, size int64, ok bool)
	// Counters snapshots the fetcher's observability state.
	Counters() PeerCounters
}

// peerTier wraps the fetcher for atomic attach/detach.
type peerTier struct {
	f PeerFetcher
}

// AttachPeers installs f as the store's peer artifact tier: lookups that
// miss memory and disk consult the owning peer before building. Pass nil
// to detach.
func (s *Store) AttachPeers(f PeerFetcher) {
	if f == nil {
		s.peers.Store(nil)
		return
	}
	s.peers.Store(&peerTier{f: f})
}

// PeerCounters snapshots the attached peer tier's counters; ok is false
// when no tier is attached.
func (s *Store) PeerCounters() (PeerCounters, bool) {
	p := s.peers.Load()
	if p == nil {
		return PeerCounters{}, false
	}
	return p.f.Counters(), true
}

// fetchPeer consults the peer tier (nil-safe). A hit is promoted into the
// memory tier and queued for the disk tier exactly like a fresh build, so
// the next lookup is local.
func (s *Store) fetchPeer(ctx context.Context, key Digest) (any, int64, bool) {
	p := s.peers.Load()
	if p == nil {
		return nil, 0, false
	}
	v, size, ok := p.f.Fetch(ctx, key)
	s.mu.Lock()
	if ok {
		s.peerHits++
	} else {
		s.peerMisses++
	}
	s.mu.Unlock()
	return v, size, ok
}

// promotePeerHit makes a peer-fetched artifact fully local: resident in the
// memory LRU and queued for the (already-verified-format) disk tier.
func (s *Store) promotePeerHit(key Digest, v any, size int64) {
	s.mu.Lock()
	s.insertLocked(key, v, size)
	s.mu.Unlock()
	if d := s.disk.Load(); d != nil {
		d.Put(key, v)
	}
}

// TryGet runs the read-only tier chain — memory, an in-flight build, disk,
// peer — without ever building. The service's cluster routing uses it on
// non-owner nodes: a hit anywhere in the fleet serves locally, a miss
// forwards the request to the owner instead of duplicating the build.
// Unlike GetOrBuild it registers no flight, so two racing TryGets may both
// read disk or fetch from the peer; both operations are idempotent and the
// duplicate work is bounded by one read each.
func (s *Store) TryGet(ctx context.Context, key Digest) (any, Outcome, bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if v, ok := s.hitLocked(key); ok {
		s.mu.Unlock()
		return v, Hit, true
	}
	if f, ok := s.inflight[key]; ok {
		s.coalesced++
		s.mu.Unlock()
		select {
		case <-f.done:
			if f.err != nil {
				return nil, Coalesced, false
			}
			return f.value, Coalesced, true
		case <-ctx.Done():
			return nil, Coalesced, false
		}
	}
	s.mu.Unlock()
	if d := s.disk.Load(); d != nil {
		if v, size, ok := d.Get(key); ok {
			s.mu.Lock()
			s.diskHits++
			s.insertLocked(key, v, size)
			s.mu.Unlock()
			return v, DiskHit, true
		}
	}
	if v, size, ok := s.fetchPeer(ctx, key); ok {
		_, sp := keySpan(ctx, "store.peerhit", key)
		sp.End()
		s.promotePeerHit(key, v, size)
		return v, PeerHit, true
	}
	return nil, Miss, false
}

// Export returns key's artifact as verified "ZATL"-framed bytes for the
// /v1/artifacts peer-serving endpoint. A memory-resident value is encoded
// through its codec and framed; otherwise the disk tier's entry — already
// in frame format — is returned after full verification. Export never
// builds and never touches the hit/miss counters: peer serves are counted
// by the HTTP handler.
func (s *Store) Export(key Digest) ([]byte, bool) {
	s.mu.Lock()
	var v any
	if el, ok := s.items[key]; ok {
		v = el.Value.(*entry).value
	}
	s.mu.Unlock()
	if v != nil {
		if data, _, err := EncodeFramed(v); err == nil {
			return data, true
		}
		// No codec (or encode failure): fall through to disk, which may
		// still hold a servable entry from an earlier binary.
	}
	if d := s.disk.Load(); d != nil {
		if data, ok := d.ReadFramed(key); ok {
			return data, true
		}
	}
	return nil, false
}

// EncodeFramed serializes v through its registered codec and wraps the
// payload in the disk tier's integrity frame (magic, version, kind,
// length, payload SHA-256) — the wire format served to peers and written
// to disk. Values no codec can serialize are an error.
func EncodeFramed(v any) (data []byte, kind string, err error) {
	c := codecForValue(v)
	if c == nil {
		return nil, "", fmt.Errorf("store: no codec can serialize %T", v)
	}
	payload, err := c.Encode(v)
	if err != nil {
		return nil, "", err
	}
	data, err = encodeDiskEntry(c.Kind(), payload)
	if err != nil {
		return nil, "", err
	}
	return data, c.Kind(), nil
}

// DecodeFramed verifies a framed entry (header, payload checksum) and
// decodes it through the registered codec for its kind, returning the
// value and its resident size. Every deviation — bad magic, unsupported
// version, torn length, checksum mismatch, unknown kind, codec rejection —
// is an error; callers must treat the bytes as untrusted and never use a
// partially-decoded value.
func DecodeFramed(data []byte) (v any, size int64, kind string, err error) {
	kind, payload, err := parseDiskEntry(data)
	if err != nil {
		return nil, 0, "", err
	}
	c := codecForKind(kind)
	if c == nil {
		return nil, 0, kind, fmt.Errorf("store: unknown codec kind %q", kind)
	}
	v, size, err = c.Decode(payload)
	if err != nil {
		return nil, 0, kind, err
	}
	if size <= 0 {
		if sz, ok := v.(Sizer); ok {
			size = sz.SizeBytes()
		}
	}
	return v, size, kind, nil
}

// Stats is one unified snapshot of every store tier, taken in a single
// call so /healthz and /metrics can never disagree mid-scrape about which
// tiers exist: the memory counters, the disk tier (when attached) and the
// peer tier (when attached).
type Stats struct {
	// Mem is the memory tier: LRU occupancy and lookup outcomes, including
	// the PeerHits/PeerMisses the peer tier produced through this store.
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

// Stats snapshots every attached tier at once. Handlers that report store
// state (zateld's /healthz and /metrics) must read through here rather
// than stitching Snapshot/DiskCounters/PeerCounters calls together, so
// both endpoints describe the same set of tiers.
func (s *Store) Stats() Stats {
	st := Stats{Mem: s.Snapshot()}
	if dc, ok := s.DiskCounters(); ok {
		st.Disk, st.DiskEnabled = dc, true
	}
	if pc, ok := s.PeerCounters(); ok {
		st.Peer, st.PeerEnabled = pc, true
	}
	return st
}
