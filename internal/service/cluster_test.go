package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zatel/internal/cluster"
	"zatel/internal/store"
)

// testNode is one in-process fleet member: its own store, cluster view and
// HTTP server, all on a real TCP port so peers reach it over the wire.
type testNode struct {
	name string
	url  string
	st   *store.Store
	cl   *cluster.Cluster
	srv  *Server
	ts   *httptest.Server
}

// newTestFleet starts n zateld nodes that know each other: listeners come
// up first (the ring needs every URL before any server exists), then each
// node gets its own store + cluster and a server bound to its listener.
func newTestFleet(t *testing.T, n int) []*testNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		name := fmt.Sprintf("node-%c", 'a'+i)
		cl, err := cluster.New(cluster.Config{
			Self:         urls[i],
			Name:         name,
			Peers:        urls,
			FetchTimeout: 5 * time.Second,
			Probe:        cluster.ProbeConfig{Interval: -1}, // no background goroutine in tests
		})
		if err != nil {
			t.Fatalf("cluster.New(%s): %v", name, err)
		}
		t.Cleanup(cl.Close)
		st := store.New(0)
		st.AttachPeers(cl)
		srv := New(Config{Store: st, Cluster: cl, NodeName: name})
		ts := httptest.NewUnstartedServer(srv.Handler())
		ts.Listener.Close()
		ts.Listener = listeners[i]
		ts.Start()
		t.Cleanup(ts.Close)
		nodes[i] = &testNode{name: name, url: urls[i], st: st, cl: cl, srv: srv, ts: ts}
	}
	return nodes
}

// bodyOwnedBy searches request seeds until the request's cache key lands on
// the wanted node, returning the body and its key. Both nodes share every
// key-relevant option, so any node's optionsFor computes the fleet's key.
func bodyOwnedBy(t *testing.T, nodes []*testNode, owner *testNode, salt uint64) (string, store.Digest) {
	t.Helper()
	for seed := salt * 1000; seed < salt*1000+200; seed++ {
		body := fmt.Sprintf(`{"scene":"SPRNG","config":"mobile","width":32,"height":32,"spp":1,"seed":%d}`, seed)
		req := PredictRequest{Scene: "SPRNG", Width: 32, Height: 32, SPP: 1, Seed: seed}
		opts, err := nodes[0].srv.optionsFor(&req)
		if err != nil {
			t.Fatal(err)
		}
		if nodes[0].cl.Owner(opts.CacheKey()) == owner.url {
			return body, opts.CacheKey()
		}
	}
	t.Fatalf("no request owned by %s in 200 seeds", owner.name)
	return "", store.Digest{}
}

// TestClusterPeerFetch is the tentpole acceptance test: a workload built on
// node A is FETCHED by node B — verified, decoded, promoted — not rebuilt.
// B's build counter stays zero and the prediction is identical.
func TestClusterPeerFetch(t *testing.T) {
	nodes := newTestFleet(t, 2)
	a, b := nodes[0], nodes[1]
	body, key := bodyOwnedBy(t, nodes, a, 1)

	// Build on the owner.
	resp, cold, rawCold := postPredict(t, a.url, body)
	if resp.StatusCode != http.StatusOK || cold.Cache != "miss" {
		t.Fatalf("cold build on owner: status %d cache %q", resp.StatusCode, cold.Cache)
	}
	if got := resp.Header.Get(NodeHeader); got != "node-a" {
		t.Errorf("%s = %q, want node-a", NodeHeader, got)
	}
	if got := resp.Header.Get(OwnerHeader); got != a.url {
		t.Errorf("%s = %q, want %q", OwnerHeader, got, a.url)
	}

	// The same request on the non-owner must be served from the peer tier.
	resp, warm, rawWarm := postPredict(t, b.url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer-backed status %d", resp.StatusCode)
	}
	if warm.Cache != "peer" {
		t.Fatalf("cache = %q on the non-owner, want peer", warm.Cache)
	}
	// The transfer is response-sized: no heatmap crosses the wire inside a
	// prediction, and the peer copy renders what the owner's build rendered.
	if r := cachedResult(t, b.st, key); r.Quantized != nil {
		t.Error("the peer hit decoded a per-prediction heatmap copy")
	}
	if got, want := predictedJSON(t, rawWarm), predictedJSON(t, rawCold); got != want {
		t.Errorf("peer hit rendered a different predicted object:\n%s\nvs miss:\n%s", got, want)
	}
	if got := resp.Header.Get(NodeHeader); got != "node-b" {
		t.Errorf("%s = %q, want node-b (request must not have been proxied)", NodeHeader, got)
	}
	if bs := b.st.Snapshot(); bs.Builds != 0 {
		t.Fatalf("node B ran %d builds, want 0 — the artifact must come over the wire", bs.Builds)
	}
	if warm.Key != key.String() || warm.Key != cold.Key {
		t.Errorf("key mismatch: cold %s warm %s want %s", cold.Key, warm.Key, key)
	}
	if len(warm.Predicted) != len(cold.Predicted) {
		t.Fatalf("predicted metric count differs: %d vs %d", len(warm.Predicted), len(cold.Predicted))
	}
	for m, v := range cold.Predicted {
		if warm.Predicted[m] != v {
			t.Errorf("metric %q: peer copy %v != original %v", m, warm.Predicted[m], v)
		}
	}
	pc := b.cl.Counters()
	if pc.Hits != 1 {
		t.Errorf("node B fetch hits = %d, want 1 (counters %+v)", pc.Hits, pc)
	}
	// B promoted the artifact: a repeat is now a pure local hit.
	if _, again, _ := postPredict(t, b.url, body); again.Cache != "hit" {
		t.Errorf("post-promotion cache = %q, want hit", again.Cache)
	}
}

// TestClusterForwardsToOwner: a fleet-wide miss landing on a non-owner is
// proxied to the owner, which builds; the non-owner builds nothing.
func TestClusterForwardsToOwner(t *testing.T) {
	nodes := newTestFleet(t, 2)
	a, b := nodes[0], nodes[1]
	body, _ := bodyOwnedBy(t, nodes, a, 2)

	resp, pr, raw := postPredict(t, b.url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded status %d: %s", resp.StatusCode, raw)
	}
	if pr.Cache != "miss" {
		t.Errorf("forwarded cache = %q, want miss (the owner built)", pr.Cache)
	}
	if got := resp.Header.Get(NodeHeader); got != "node-b" {
		t.Errorf("%s = %q, want the node the client hit", NodeHeader, got)
	}
	if got := resp.Header.Get(OwnerHeader); got != a.url {
		t.Errorf("%s = %q, want %q", OwnerHeader, got, a.url)
	}
	// The owner runs the prediction build (plus its workload sub-builds in
	// the same store); the non-owner must run none at all.
	if as, bs := a.st.Snapshot(), b.st.Snapshot(); as.Builds == 0 || bs.Builds != 0 {
		t.Errorf("builds: owner %d (want >0), non-owner %d (want 0)", as.Builds, bs.Builds)
	}
	if pc := b.cl.Counters(); pc.Proxied != 1 || pc.ProxyErrors != 0 {
		t.Errorf("proxy counters = %+v", pc)
	}
}

// TestClusterOwnerDownDegrades: killing the owner must not fail requests —
// the survivor notices, falls back to a local build and keeps answering.
func TestClusterOwnerDownDegrades(t *testing.T) {
	nodes := newTestFleet(t, 2)
	a, b := nodes[0], nodes[1]
	body, _ := bodyOwnedBy(t, nodes, a, 3)

	a.ts.Close() // the owner dies before ever seeing the key

	resp, pr, raw := postPredict(t, b.url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request failed with the owner down: status %d: %s", resp.StatusCode, raw)
	}
	if pr.Cache != "miss" {
		t.Errorf("cache = %q, want miss (local fallback build)", pr.Cache)
	}
	if bs := b.st.Snapshot(); bs.Builds == 0 {
		t.Error("survivor ran no builds; where did the prediction come from?")
	}
	pc := b.cl.Counters()
	if pc.LocalFallbacks == 0 && pc.ProxyErrors == 0 && pc.Errors == 0 {
		t.Errorf("no failure recorded anywhere: %+v", pc)
	}
	if b.cl.Healthy(a.url) {
		t.Error("dead owner still marked healthy on the survivor")
	}
	// Repeats keep working (and are now local hits).
	if _, again, _ := postPredict(t, b.url, body); again.Cache != "hit" {
		t.Errorf("repeat with owner down: cache %q, want hit", again.Cache)
	}
}

// TestClusterHealthzAndMetrics: both endpoints expose the cluster block and
// agree with each other about the peer tier.
func TestClusterHealthzAndMetrics(t *testing.T) {
	nodes := newTestFleet(t, 2)
	b := nodes[1]

	hresp, err := http.Get(b.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hz struct {
		Node    string `json:"node"`
		Cluster struct {
			State        string `json:"state"`
			Self         string `json:"self"`
			Peers        int    `json:"peers"`
			PeersHealthy int    `json:"peers_healthy"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if hz.Node != "node-b" {
		t.Errorf("healthz node = %q", hz.Node)
	}
	if hz.Cluster.State != "ok" || hz.Cluster.Self != b.url ||
		hz.Cluster.Peers != 2 || hz.Cluster.PeersHealthy != 2 {
		t.Errorf("healthz cluster block = %+v", hz.Cluster)
	}

	mresp, err := http.Get(b.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	prom := string(raw)
	for _, want := range []string{
		"zatel_cluster_enabled 1",
		"zatel_cluster_peers 2",
		"zatel_cluster_peers_healthy 2",
		"zatel_cluster_fetch_hits_total 0",
		"zatel_store_peer_hits_total 0",
		"zatel_cluster_proxied_total 0",
		"zatel_cluster_local_fallbacks_total 0",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSingleNodeHasNodeHeader: satellite 2 — even without a cluster every
// response names its serving node.
func TestSingleNodeHasNodeHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{NodeName: "solo"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(NodeHeader); got != "solo" {
		t.Errorf("%s = %q, want solo", NodeHeader, got)
	}
	// And without an explicit name there is still always some identity.
	_, ts2 := newTestServer(t, Config{})
	resp2, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get(NodeHeader) == "" {
		t.Errorf("%s empty on a default server", NodeHeader)
	}
}
