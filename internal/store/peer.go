package store

import "context"

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
	// Fetch returns key's artifact, integrity-verified and decoded, with
	// its resident size.
	Fetch(ctx context.Context, key Digest) (v any, size int64, ok bool)
	// Counters snapshots the fetcher's observability state.
	Counters() PeerCounters
}
