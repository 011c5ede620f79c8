package service

import (
	"net/http"
	"strconv"
	"time"

	"zatel/internal/core"
	"zatel/internal/obs"
	"zatel/internal/runner"
	"zatel/internal/store"
)

// The families the server counts into as it works. Every other family in
// metricTables is read at scrape time.
var (
	httpRequests        = obs.Desc{Name: "zatel_http_requests_total", Type: "counter", Help: "requests by handler and status code", Labels: []string{"handler", "code"}}
	stageLatency        = obs.Desc{Name: "zatel_stage_latency_seconds", Type: "histogram", Help: "per-stage latency: request (whole request), build (pipeline execution), admission_wait (time queued for a slot)", Labels: []string{"stage"}}
	stepLatency         = obs.Desc{Name: "zatel_step_latency_seconds", Type: "histogram", Help: "per-pipeline-step latency of cold builds, step1_profile to step7_combine (the seven steps of DESIGN.md's span taxonomy)", Labels: []string{"step"}}
	ciHalfwidth         = obs.Desc{Name: "zatel_ci_halfwidth", Type: "histogram", Help: "worst relative confidence half-width of each replicated-strategy build (unitless; the bucket bounds read as ratios, not seconds)", Labels: []string{"kind"}}
	clusterFetchSeconds = obs.Desc{Name: "zatel_cluster_fetch_seconds", Type: "histogram", Help: "latency of successful peer artifact fetches"}
	clusterProxySeconds = obs.Desc{Name: "zatel_cluster_proxy_seconds", Type: "histogram", Help: "latency of successful forwarded predict requests"}
)

// tier is the part of the store a scraped family reports on.
type tier int

const (
	always   tier = iota
	diskTier      // written while a disk tier is attached
	peerTier      // written while the server is in a fleet
)

// snapshot is what one scrape reads: one store.Stats call, which /healthz
// shares, and the server's own state.
type snapshot struct {
	store.Stats
	s *Server
}

// metric is one exported family. get, when set, reads its value from the
// snapshot at scrape time, and only while its tier is attached.
type metric struct {
	obs.Desc
	tier tier
	get  func(*snapshot) float64
}

func counter(name, help string) obs.Desc {
	return obs.Desc{Name: name, Type: "counter", Help: help}
}

func gauge(name, help string) obs.Desc {
	return obs.Desc{Name: name, Type: "gauge", Help: help}
}

func counted(descs []obs.Desc) []metric {
	ms := make([]metric, len(descs))
	for i, d := range descs {
		ms[i] = metric{Desc: d}
	}
	return ms
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// metricTables declares every family zateld exports, once: grouped and
// ordered as OPERATIONS.md's metric tables, which are generated from it
// (TestOperationsMetricTables), and in the order /metrics writes them.
var metricTables = []struct {
	name    string
	metrics []metric
}{
	{"store", []metric{
		{counter("zatel_store_hits_total", "requests served from the store"), always, func(x *snapshot) float64 { return float64(x.Mem.Hits) }},
		{counter("zatel_store_misses_total", "requests that had to build"), always, func(x *snapshot) float64 { return float64(x.Mem.Misses) }},
		{counter("zatel_store_coalesced_total", "requests that waited on another caller's identical in-flight build"), always, func(x *snapshot) float64 { return float64(x.Mem.Coalesced) }},
		{counter("zatel_store_builds_total", "builds actually executed"), always, func(x *snapshot) float64 { return float64(x.Mem.Builds) }},
		{counter("zatel_store_build_errors_total", "builds that returned an error (errors are never cached)"), always, func(x *snapshot) float64 { return float64(x.Mem.BuildErrors) }},
		{counter("zatel_store_evictions_total", "LRU evictions under the -store-size budget"), always, func(x *snapshot) float64 { return float64(x.Mem.Evictions) }},
		{gauge("zatel_store_entries", "artifacts currently resident"), always, func(x *snapshot) float64 { return float64(x.Mem.Entries) }},
		{gauge("zatel_store_bytes", "bytes currently resident"), always, func(x *snapshot) float64 { return float64(x.Mem.Bytes) }},
		{gauge("zatel_store_max_bytes", "the configured budget (0 = unbounded)"), always, func(x *snapshot) float64 { return float64(x.Mem.MaxBytes) }},
		{gauge("zatel_store_inflight", "builds running right now"), always, func(x *snapshot) float64 { return float64(x.Mem.Inflight) }},
	}},
	{"disk", []metric{
		{gauge("zatel_store_disk_enabled", "1 when a disk tier is attached (0 = -store-dir not given)"), always, func(x *snapshot) float64 { return b2f(x.DiskEnabled) }},
		{gauge("zatel_store_disk_degraded", "1 while the tier sheds writes and runs memory-only"), diskTier, func(x *snapshot) float64 { return b2f(x.Disk.State == store.DiskDegraded.String()) }},
		{counter("zatel_store_disk_hits_total", "lookups served from a verified disk entry"), diskTier, func(x *snapshot) float64 { return float64(x.Disk.Hits) }},
		{counter("zatel_store_disk_misses_total", "disk lookups that found no valid entry"), diskTier, func(x *snapshot) float64 { return float64(x.Disk.Misses) }},
		{counter("zatel_store_disk_read_errors_total", "filesystem read failures (EIO etc.), treated as misses"), diskTier, func(x *snapshot) float64 { return float64(x.Disk.ReadErrors) }},
		{counter("zatel_store_disk_writes_total", "entries durably persisted (temp, fsync, rename)"), diskTier, func(x *snapshot) float64 { return float64(x.Disk.Writes) }},
		{counter("zatel_store_disk_write_errors_total", "failed persistence attempts"), diskTier, func(x *snapshot) float64 { return float64(x.Disk.WriteErrors) }},
		{counter("zatel_store_disk_writes_dropped_total", "writes shed while degraded or with the write-behind queue full"), diskTier, func(x *snapshot) float64 { return float64(x.Disk.WritesDropped) }},
		{counter("zatel_store_disk_quarantined_total", "corrupt entries renamed aside (.bad*) after failing verification"), diskTier, func(x *snapshot) float64 { return float64(x.Disk.Quarantined) }},
		{counter("zatel_store_disk_evictions_total", "entries removed under the -disk-size budget"), diskTier, func(x *snapshot) float64 { return float64(x.Disk.Evictions) }},
		{counter("zatel_store_disk_degraded_total", "transitions into degraded mode"), diskTier, func(x *snapshot) float64 { return float64(x.Disk.DegradedCount) }},
		{gauge("zatel_store_disk_entries", "valid entries on disk"), diskTier, func(x *snapshot) float64 { return float64(x.Disk.Entries) }},
		{gauge("zatel_store_disk_bytes", "bytes of valid entries on disk"), diskTier, func(x *snapshot) float64 { return float64(x.Disk.Bytes) }},
		{gauge("zatel_store_disk_max_bytes", "the -disk-size budget (0 = unbounded)"), diskTier, func(x *snapshot) float64 { return float64(x.Disk.MaxBytes) }},
	}},
	{"cluster", []metric{
		{gauge("zatel_cluster_enabled", "1 when cluster mode is on (0 = -peers not given)"), always, func(x *snapshot) float64 { return b2f(x.inFleet()) }},
		{gauge("zatel_cluster_peers", "ring size, self included"), peerTier, func(x *snapshot) float64 { return float64(x.Peer.Peers) }},
		{gauge("zatel_cluster_peers_healthy", "peers the prober currently considers reachable (self included)"), peerTier, func(x *snapshot) float64 { return float64(x.Peer.Healthy) }},
		{counter("zatel_store_peer_hits_total", "store lookups served by the peer tier"), always, func(x *snapshot) float64 { return float64(x.Mem.PeerHits) }},
		{counter("zatel_store_peer_misses_total", "peer-tier consultations that returned nothing (the store then built)"), always, func(x *snapshot) float64 { return float64(x.Mem.PeerMisses) }},
		{counter("zatel_cluster_fetch_hits_total", "artifact fetches that returned a verified, decodable artifact"), peerTier, func(x *snapshot) float64 { return float64(x.Peer.Hits) }},
		{counter("zatel_cluster_fetch_misses_total", "fetches answered 404: the owner has not built the key either"), peerTier, func(x *snapshot) float64 { return float64(x.Peer.Misses) }},
		{counter("zatel_cluster_fetch_errors_total", "fetch transport failures and unexpected statuses (the owner is marked unhealthy)"), peerTier, func(x *snapshot) float64 { return float64(x.Peer.Errors) }},
		{counter("zatel_cluster_fetch_rejects_total", "peer responses that failed frame verification or codec decode, never promoted"), peerTier, func(x *snapshot) float64 { return float64(x.Peer.Rejects) }},
		{counter("zatel_cluster_fetch_skipped_total", "fetches not attempted because the owner was unhealthy"), peerTier, func(x *snapshot) float64 { return float64(x.Peer.Skipped) }},
		{counter("zatel_cluster_proxied_total", "whole /v1/predict requests forwarded to the owning peer"), peerTier, func(x *snapshot) float64 { return float64(x.Peer.Proxied) }},
		{counter("zatel_cluster_proxy_errors_total", "forwards that failed (transport or owner 5xx) and fell back to a local build"), peerTier, func(x *snapshot) float64 { return float64(x.Peer.ProxyErrors) }},
		{counter("zatel_cluster_local_fallbacks_total", "predictions built locally because the owner was unhealthy or the forward failed"), peerTier, func(x *snapshot) float64 { return float64(x.Peer.LocalFallbacks) }},
		{clusterFetchSeconds, peerTier, nil},
		{clusterProxySeconds, peerTier, nil},
	}},
	{"admission", []metric{
		{gauge("zatel_predict_running", "predictions holding a build slot"), always, func(x *snapshot) float64 { return float64(x.s.running.Load()) }},
		{gauge("zatel_predict_queued", "builders waiting for a slot"), always, func(x *snapshot) float64 { return float64(x.s.queued.Load()) }},
		{gauge("zatel_predict_capacity", "total build slots (-max-concurrent resolved)"), always, func(x *snapshot) float64 { return float64(x.s.cfg.MaxConcurrent) }},
		{gauge("zatel_draining", "1 while SIGTERM drain is in progress, else 0"), always, func(x *snapshot) float64 { return b2f(x.s.draining.Load()) }},
		{gauge("zatel_uptime_seconds", "seconds since server start"), always, func(x *snapshot) float64 { return time.Since(x.s.start).Seconds() }},
	}},
	{"http", []metric{{Desc: httpRequests}, {Desc: stageLatency}, {Desc: stepLatency}}},
	{"runner", counted(runner.Metrics)},
	{"pipeline", append(counted(core.Metrics), metric{Desc: ciHalfwidth})},
}

func (x *snapshot) inFleet() bool { return x.s.cfg.Cluster != nil && x.PeerEnabled }

// newRegistry declares every family of metricTables and creates the series
// the server counts into, so that each reads 0 before its first event.
func (s *Server) newRegistry() {
	var descs []obs.Desc
	for _, t := range metricTables {
		for _, m := range t.metrics {
			descs = append(descs, m.Desc)
		}
	}
	s.reg = obs.NewRegistry(descs...)
	for _, stage := range []string{"request", "build", "admission_wait"} {
		s.reg.Histogram(&stageLatency, stage)
	}
	for _, step := range core.StepSpanNames {
		s.reg.Histogram(&stepLatency, step)
	}
	s.reg.Histogram(&ciHalfwidth, "relative")
	for _, ds := range [][]obs.Desc{runner.Metrics, core.Metrics} {
		for _, d := range ds {
			s.reg.Add(&d, 0)
		}
	}
	s.histRequest = s.reg.Histogram(&stageLatency, "request")
}

// countRequest counts one answered request. A 200 needs no formatting, so a
// cache hit allocates nothing here.
func (s *Server) countRequest(handler string, code int) {
	label := "200"
	if code != http.StatusOK {
		label = strconv.Itoa(code)
	}
	s.reg.Add(&httpRequests, 1, handler, label)
}

// handleMetrics is the Prometheus text exposition: it sets every scraped
// family from one snapshot, then the registry writes them all.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, r, "metrics", http.MethodGet)
		return
	}
	s.countRequest("metrics", http.StatusOK)
	x := snapshot{Stats: s.st.Stats(), s: s}
	on := [...]bool{always: true, diskTier: x.DiskEnabled, peerTier: x.inFleet()}
	for _, t := range metricTables {
		for _, m := range t.metrics {
			if m.get != nil && on[m.tier] {
				s.reg.Set(&m.Desc, m.get(&x))
			}
		}
	}
	if on[peerTier] {
		s.reg.SetHistogram(&clusterFetchSeconds, s.cfg.Cluster.FetchLatency())
		s.reg.SetHistogram(&clusterProxySeconds, s.cfg.Cluster.ProxyLatency())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}
