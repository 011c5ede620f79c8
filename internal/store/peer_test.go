package store

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// fakePeers scripts the peer tier: it serves the keys in have and counts
// every consultation.
type fakePeers struct {
	have    map[Digest]string
	fetches atomic.Int64
}

func (f *fakePeers) Fetch(ctx context.Context, key Digest) (any, int64, bool) {
	f.fetches.Add(1)
	if v, ok := f.have[key]; ok {
		return v, int64(len(v)), true
	}
	return nil, 0, false
}

func (f *fakePeers) Counters() PeerCounters {
	return PeerCounters{Peers: 2, Healthy: 2, Fetches: uint64(f.fetches.Load())}
}

func TestGetOrBuildPeerHit(t *testing.T) {
	s := New(0)
	ctx := context.Background()
	k := key(1)
	peers := &fakePeers{have: map[Digest]string{k: "from the owner"}}
	s.AttachPeers(peers)

	v, out, err := s.GetOrBuild(ctx, k, func(context.Context) (any, int64, error) {
		t.Fatal("build ran though the peer had the artifact")
		return nil, 0, nil
	})
	if err != nil || out != PeerHit || v.(string) != "from the owner" {
		t.Fatalf("peer-backed call: %v %v %v", v, out, err)
	}
	if out.String() != "peer" {
		t.Errorf("PeerHit.String() = %q, want \"peer\"", out.String())
	}
	// The hit was promoted: the next lookup is a memory hit, no peer call.
	v, out, err = s.GetOrBuild(ctx, k, constBuild(nil, 0))
	if err != nil || out != Hit || v.(string) != "from the owner" {
		t.Fatalf("post-promotion call: %v %v %v", v, out, err)
	}
	if n := peers.fetches.Load(); n != 1 {
		t.Errorf("peer consulted %d times, want 1 (promotion failed?)", n)
	}
	c := s.Snapshot()
	if c.PeerHits != 1 || c.Builds != 0 {
		t.Errorf("counters = %+v, want PeerHits=1 Builds=0", c)
	}
}

func TestGetOrBuildPeerMissBuilds(t *testing.T) {
	s := New(0)
	ctx := context.Background()
	peers := &fakePeers{} // has nothing
	s.AttachPeers(peers)

	v, out, err := s.GetOrBuild(ctx, key(2), constBuild("built locally", 13))
	if err != nil || out != Miss || v.(string) != "built locally" {
		t.Fatalf("peer miss did not degrade to a build: %v %v %v", v, out, err)
	}
	if peers.fetches.Load() != 1 {
		t.Errorf("peer consulted %d times, want 1", peers.fetches.Load())
	}
	c := s.Snapshot()
	if c.PeerMisses != 1 || c.Builds != 1 {
		t.Errorf("counters = %+v, want PeerMisses=1 Builds=1", c)
	}
}

// TestPeerConsultedAfterDisk pins the tier order: a disk-resident artifact
// never reaches the peer tier.
func TestPeerConsultedAfterDisk(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	k := key(7)

	// Build once so the artifact lands on disk, then "restart": a fresh
	// memory store over the same directory, this time with a peer tier.
	st := New(0)
	d := openTestDisk(t, DiskConfig{Dir: dir})
	st.AttachDisk(d)
	if _, _, err := st.GetOrBuild(ctx, k, blobBuild(7, 64, nil)); err != nil {
		t.Fatal(err)
	}
	d.Flush()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := New(0)
	st2.AttachDisk(openTestDisk(t, DiskConfig{Dir: dir}))
	peers := &fakePeers{}
	st2.AttachPeers(peers)
	_, out, err := st2.GetOrBuild(ctx, k, func(context.Context) (any, int64, error) {
		t.Fatal("build ran though disk had the artifact")
		return nil, 0, nil
	})
	if err != nil || out != DiskHit {
		t.Fatalf("disk-backed call: %v %v", out, err)
	}
	if peers.fetches.Load() != 0 {
		t.Errorf("peer consulted %d times for a disk-resident key, want 0", peers.fetches.Load())
	}
}

func TestTryGetOutcomes(t *testing.T) {
	s := New(0)
	ctx := context.Background()
	k1, k2, k3 := key(1), key(2), key(3)
	peers := &fakePeers{have: map[Digest]string{k2: "peer copy"}}
	s.AttachPeers(peers)

	// Memory hit.
	if _, _, err := s.GetOrBuild(ctx, k1, constBuild("resident", 8)); err != nil {
		t.Fatal(err)
	}
	if v, out, ok := s.Get(ctx, k1, Chain); !ok || out != Hit || v.(string) != "resident" {
		t.Fatalf("Get(resident) = %v %v %v", v, out, ok)
	}
	// Peer hit, promoted.
	if v, out, ok := s.Get(ctx, k2, Chain); !ok || out != PeerHit || v.(string) != "peer copy" {
		t.Fatalf("Get(peer) = %v %v %v", v, out, ok)
	}
	if v, out, ok := s.Get(ctx, k2, Chain); !ok || out != Hit || v.(string) != "peer copy" {
		t.Fatalf("Get after promotion = %v %v %v", v, out, ok)
	}
	// Fleet-wide miss: no build, ok=false.
	if _, _, ok := s.Get(ctx, k3, Chain); ok {
		t.Fatal("Get(miss) = true")
	}
	c := s.Snapshot()
	if c.Builds != 1 {
		t.Errorf("Get ran a build: %+v", c)
	}
}

func TestTryGetJoinsInflightBuild(t *testing.T) {
	s := New(0)
	ctx := context.Background()
	k := key(1)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.GetOrBuild(ctx, k, func(context.Context) (any, int64, error) {
			close(started)
			<-release
			return "slow build", 10, nil
		})
	}()
	<-started
	got := make(chan string, 1)
	go func() {
		v, out, ok := s.Get(ctx, k, Chain)
		if !ok || out != Coalesced {
			got <- fmt.Sprintf("bad outcome %v ok=%v", out, ok)
			return
		}
		got <- v.(string)
	}()
	// Get bumps the coalesced counter before waiting on the flight;
	// release the build only once it has demonstrably joined.
	for s.Snapshot().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if v := <-got; v != "slow build" {
		t.Fatalf("Get joined in-flight build, got %q", v)
	}
	<-done
}

// TestStatsMatchesSnapshot: the unified Stats call and the individual
// snapshots must agree — /healthz and /metrics read through Stats so they
// can never disagree about which tiers exist.
func TestStatsMatchesSnapshot(t *testing.T) {
	s := New(0)
	ctx := context.Background()
	st := s.Stats()
	if st.DiskEnabled || st.PeerEnabled {
		t.Fatalf("bare store reports tiers: %+v", st)
	}

	k := key(1)
	peers := &fakePeers{have: map[Digest]string{k: "x"}}
	s.AttachPeers(peers)
	if _, _, err := s.GetOrBuild(ctx, k, constBuild(nil, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetOrBuild(ctx, key(9), constBuild("y", 1)); err != nil {
		t.Fatal(err)
	}

	st = s.Stats()
	if !st.PeerEnabled {
		t.Fatal("peer tier attached but PeerEnabled = false")
	}
	if st.Mem != s.Snapshot() {
		t.Errorf("Stats.Mem %+v != Snapshot %+v", st.Mem, s.Snapshot())
	}
	if st.Mem.PeerHits != 1 || st.Mem.PeerMisses != 1 {
		t.Errorf("peer outcome counters = %+v", st.Mem)
	}
	if pc := peers.Counters(); st.Peer != pc {
		t.Errorf("Stats.Peer %+v != the fetcher's Counters %+v", st.Peer, pc)
	}
	s.AttachPeers(nil)
	if st = s.Stats(); st.PeerEnabled {
		t.Error("detached peer tier still reported enabled")
	}
}

// TestChainPromotesAndExports pins what the one lookup does with an answer
// from below and what Export reads: a peer hit is kept by memory and queued
// for disk, and Export serves memory or disk frames but never asks a peer,
// whose own request would otherwise come back to it.
func TestChainPromotesAndExports(t *testing.T) {
	ctx := context.Background()
	onPeer, elsewhere := key(1), key(2)
	peers := &blobPeers{key: onPeer, v: blob(1, 32)}
	d := openTestDisk(t, DiskConfig{Dir: t.TempDir()})
	st := New(0)
	st.AttachDisk(d)
	st.AttachPeers(peers)

	if _, out, ok := st.Get(ctx, onPeer, Chain); !ok || out != PeerHit {
		t.Fatalf("Get(peer) = %v %v", out, ok)
	}
	d.Flush()
	if !st.Contains(onPeer) || !d.Contains(onPeer) {
		t.Errorf("peer hit not kept: memory %v, disk %v", st.Contains(onPeer), d.Contains(onPeer))
	}

	// The memory copy is framed; a fresh store over the same disk serves the
	// disk's frame as stored, byte for byte the same; a key only a peer has
	// is not exported and the peer is not asked.
	fromMem, ok := st.Export(onPeer)
	if !ok {
		t.Fatal("Export of a resident key failed")
	}
	fresh := New(0)
	fresh.AttachDisk(d)
	fresh.AttachPeers(peers)
	if fromDisk, ok := fresh.Export(onPeer); !ok || !bytes.Equal(fromDisk, fromMem) {
		t.Errorf("Export from disk: ok %v, want the memory copy's frame", ok)
	}
	peers.key = elsewhere
	if _, ok := fresh.Export(elsewhere); ok || peers.fetches != 1 {
		t.Errorf("Export of a peer-only key: ok %v after %d peer fetches, want false after only the Get above", ok, peers.fetches)
	}
}

// blobPeers is a peer tier holding one testBlob.
type blobPeers struct {
	key     Digest
	v       *testBlob
	fetches int
}

func (p *blobPeers) Fetch(_ context.Context, key Digest) (any, int64, bool) {
	p.fetches++
	if key != p.key {
		return nil, 0, false
	}
	return p.v, p.v.SizeBytes(), true
}

func (p *blobPeers) Counters() PeerCounters { return PeerCounters{Fetches: uint64(p.fetches)} }
