// Package service implements zateld, the long-lived Zatel prediction
// server: the amortization the paper argues for, operated at the fleet
// level. Expensive pipeline artifacts (workload traces, quantized heatmaps,
// whole predictions) live in a content-addressed store; identical requests
// arriving concurrently coalesce onto one pipeline execution; an admission
// semaphore bounds how many predictions build at once; and every request
// carries a deadline mapped onto core.PredictContext so a slow build cannot
// hold a client past its budget.
//
// Endpoints:
//
//	POST /v1/predict  — JSON request → cached-or-computed prediction
//	GET  /v1/scenes   — the scene library
//	GET  /v1/configs  — the Table II GPU configurations
//	GET  /healthz     — liveness; 503 while draining
//	GET  /metrics     — Prometheus text exposition
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zatel/internal/cluster"
	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/obs"
	"zatel/internal/scene"
	"zatel/internal/store"
)

// Config sizes the server. Zero values select production-sane defaults.
type Config struct {
	// Store holds the artifacts (nil = a new unbounded store). The same
	// store instance backs workload traces, quantized heatmaps and whole
	// predictions when it is installed as store.Default's budget via
	// SetMaxBytes; the server itself only inserts predictions.
	Store *store.Store
	// MaxConcurrent bounds how many predictions may build simultaneously
	// (0 = one per CPU core). Cache hits and coalesced waiters do not
	// consume slots.
	MaxConcurrent int
	// MaxQueue bounds how many builders may wait for a slot before the
	// server sheds load with 503 (0 = 4×MaxConcurrent).
	MaxQueue int
	// DefaultTimeout applies when a request carries no timeout_ms
	// (0 = 60s); MaxTimeout clamps client-requested deadlines (0 = 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Parallel/Workers configure the step-6 group fan-out of every
	// prediction this server runs (see core.Options).
	Parallel bool
	Workers  int
	// Cluster joins this server to a zateld fleet (nil = single-node):
	// /v1/predict routes by ring ownership, /v1/artifacts serves framed
	// artifacts to peers, and the store's peer tier should be attached to
	// the same Cluster by the caller (store.AttachPeers).
	Cluster *cluster.Cluster
	// NodeName is stamped into every response's X-Zatel-Node header and
	// request log line (default: the cluster node name, else the hostname,
	// else "zateld").
	NodeName string
}

func (c *Config) fillDefaults() {
	if c.Store == nil {
		c.Store = store.New(0)
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.NodeName == "" {
		if c.Cluster != nil {
			c.NodeName = c.Cluster.Name()
		} else if host, err := os.Hostname(); err == nil && host != "" {
			c.NodeName = host
		} else {
			c.NodeName = "zateld"
		}
	}
}

// Server is the zateld HTTP service. Construct with New; it is safe for
// concurrent use.
type Server struct {
	cfg   Config
	st    *store.Store
	mux   *http.ServeMux
	start time.Time

	sem      chan struct{}
	queued   atomic.Int64
	running  atomic.Int64
	draining atomic.Bool

	reqMu     sync.Mutex
	reqCounts map[reqKey]uint64

	histRequest *obs.Histogram // end-to-end predict request latency
	histBuild   *obs.Histogram // cold pipeline executions only
	histWait    *obs.Histogram // admission-queue wait of builders
	histCI      *obs.Histogram // worst relative CI half-width of replicated predictions

	// histStep holds one latency histogram per pipeline step span name
	// (core.StepSpanNames), fed from the per-build tracer; exposed as
	// zatel_step_latency_seconds{step="..."}.
	histStep map[string]*obs.Histogram
}

type reqKey struct {
	handler string
	code    int
}

// New returns a ready-to-serve server.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:         cfg,
		st:          cfg.Store,
		mux:         http.NewServeMux(),
		start:       time.Now(),
		sem:         make(chan struct{}, cfg.MaxConcurrent),
		reqCounts:   make(map[reqKey]uint64),
		histRequest: obs.NewHistogram(),
		histBuild:   obs.NewHistogram(),
		histWait:    obs.NewHistogram(),
		histCI:      obs.NewHistogram(),
		histStep:    make(map[string]*obs.Histogram, len(core.StepSpanNames)),
	}
	for _, name := range core.StepSpanNames {
		s.histStep[name] = obs.NewHistogram()
	}
	s.mux.HandleFunc("/v1/predict", s.handlePredict)
	s.mux.HandleFunc("/v1/scenes", s.handleScenes)
	s.mux.HandleFunc("/v1/configs", s.handleConfigs)
	s.mux.HandleFunc(cluster.ArtifactsPath, s.handleArtifacts)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Handler returns the root http.Handler: the mux wrapped in the request-ID
// and logging middleware. Every response carries X-Zatel-Request-Id (the
// client's own, when it sent one, so IDs correlate across services) and
// X-Zatel-Node (which fleet member answered — single-node servers stamp it
// too, so traces stay attributable when a node later joins a fleet), and
// every request emits one structured log line — predictions at info,
// read-only endpoints at debug.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = obs.NewRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		w.Header().Set(NodeHeader, s.cfg.NodeName)
		r = r.WithContext(obs.WithRequestID(r.Context(), id))

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		s.mux.ServeHTTP(sw, r)

		lvl := slog.LevelDebug
		if r.URL.Path == "/v1/predict" {
			lvl = slog.LevelInfo
		}
		slog.Default().LogAttrs(r.Context(), lvl, "request", append([]slog.Attr{
			slog.String("request_id", id),
			slog.String("node", s.cfg.NodeName),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.code),
			slog.Float64("elapsed_ms", float64(time.Since(start))/1e6),
		}, sw.attrs...)...)
	})
}

// RequestIDHeader is the request/response header carrying the per-request
// correlation ID that also appears in log lines, error bodies and trace
// exports.
const RequestIDHeader = "X-Zatel-Request-Id"

// NodeHeader names the fleet member that answered the request; OwnerHeader
// names the consistent-hash owner of a /v1/predict request's artifact key
// (cluster mode only). Together they make routing observable: node != owner
// on a response means the peer tier or a local fallback served it.
const (
	NodeHeader  = "X-Zatel-Node"
	OwnerHeader = "X-Zatel-Owner"
)

// statusWriter captures the response code for the request log line, and
// what the handler has to say on that line (logAttrs).
type statusWriter struct {
	http.ResponseWriter
	code  int
	attrs []slog.Attr
}

// logAttrs adds attributes to the request's one log line: /v1/predict
// reports scene, config, cache, key and degraded there, a forwarded request
// its owner and the owner's cache outcome.
func logAttrs(w http.ResponseWriter, attrs ...slog.Attr) {
	if sw, ok := w.(*statusWriter); ok {
		sw.attrs = append(sw.attrs, attrs...)
	}
}

// WriteHeader records the status before delegating.
func (s *statusWriter) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

// Store exposes the artifact store (tests and metrics).
func (s *Server) Store() *store.Store { return s.st }

// SetDraining flips drain mode: /healthz turns 503 so load balancers stop
// routing here, and new predictions are refused while in-flight ones finish.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports drain mode.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) countRequest(handler string, code int) {
	s.reqMu.Lock()
	s.reqCounts[reqKey{handler, code}]++
	s.reqMu.Unlock()
}

// errTooBusy is the load-shedding sentinel: the admission queue is full.
var errTooBusy = errors.New("service: admission queue full")

// acquire takes one build slot, waiting in the bounded admission queue.
// It fails fast with errTooBusy when the queue is full and with ctx's
// error when the request deadline fires first.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		s.running.Add(1)
		return nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		return errTooBusy
	}
	defer s.queued.Add(-1)
	waitStart := time.Now()
	select {
	case s.sem <- struct{}{}:
		s.histWait.Observe(time.Since(waitStart))
		s.running.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() {
	s.running.Add(-1)
	<-s.sem
}

// deadlineFor maps the request's timeout_ms onto the context every pipeline
// stage below runs under: absent → DefaultTimeout, always clamped to
// MaxTimeout.
func (s *Server) deadlineFor(timeoutMs int) time.Duration {
	d := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

func (s *Server) handleScenes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, r, "scenes", http.MethodGet)
		return
	}
	s.countRequest("scenes", http.StatusOK)
	writeJSON(w, http.StatusOK, map[string]any{"scenes": scene.Names()})
}

type configInfo struct {
	Name          string `json:"name"`
	NumSMs        int    `json:"num_sms"`
	MemPartitions int    `json:"mem_partitions"`
	DownscaleK    int    `json:"downscale_k"`
}

func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, r, "configs", http.MethodGet)
		return
	}
	var infos []configInfo
	for _, c := range []config.Config{config.MobileSoC(), config.RTX2060()} {
		infos = append(infos, configInfo{
			Name:          c.Name,
			NumSMs:        c.NumSMs,
			MemPartitions: c.NumMemPartitions,
			DownscaleK:    config.DownscaleFactor(c),
		})
	}
	s.countRequest("configs", http.StatusOK)
	writeJSON(w, http.StatusOK, map[string]any{"configs": infos})
}

// handleHealthz reports liveness plus the state an operator triages first:
// memory-store occupancy, the disk tier's mode and the cluster's peer
// health. "degraded" in the disk block means the tier stopped persisting
// (full or failing disk) and the server is running memory-only — still
// healthy for serving, but worth an alert (see OPERATIONS.md). All store
// figures come from one store.Stats snapshot, the same call /metrics
// reads, so the two endpoints cannot disagree about which tiers exist.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	stats := s.st.Stats()
	c := stats.Mem
	body := map[string]any{
		"uptime_s": time.Since(s.start).Seconds(),
		"node":     s.cfg.NodeName,
		"store": map[string]any{
			"entries":   c.Entries,
			"bytes":     c.Bytes,
			"max_bytes": c.MaxBytes,
		},
	}
	disk := map[string]any{"state": "disabled"}
	if stats.DiskEnabled {
		dc := stats.Disk
		disk["state"] = dc.State
		disk["entries"] = dc.Entries
		disk["bytes"] = dc.Bytes
		disk["max_bytes"] = dc.MaxBytes
		disk["quarantined"] = dc.Quarantined
	}
	body["disk"] = disk
	clusterBody := map[string]any{"state": "disabled"}
	if cl := s.cfg.Cluster; cl != nil && stats.PeerEnabled {
		pc := stats.Peer
		clusterBody["state"] = "ok"
		clusterBody["self"] = cl.Self()
		clusterBody["peers"] = pc.Peers
		clusterBody["peers_healthy"] = pc.Healthy
		if pc.Healthy < pc.Peers {
			clusterBody["state"] = "peer-degraded"
		}
	}
	body["cluster"] = clusterBody
	if s.draining.Load() {
		body["status"] = "draining"
		s.countRequest("healthz", http.StatusServiceUnavailable)
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body["status"] = "ok"
	s.countRequest("healthz", http.StatusOK)
	writeJSON(w, http.StatusOK, body)
}

// handleMetrics is the Prometheus text exposition: store counters, admission
// state, per-handler request totals and the per-stage latency histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, r, "metrics", http.MethodGet)
		return
	}
	s.countRequest("metrics", http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	stats := s.st.Stats()
	c := stats.Mem
	counter := func(name string, v uint64, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name string, v int64, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("zatel_store_hits_total", c.Hits, "artifact lookups served from residency")
	counter("zatel_store_misses_total", c.Misses, "artifact lookups that built")
	counter("zatel_store_coalesced_total", c.Coalesced, "lookups that joined an in-flight build")
	counter("zatel_store_builds_total", c.Builds, "artifact build executions")
	counter("zatel_store_build_errors_total", c.BuildErrors, "failed artifact builds")
	counter("zatel_store_evictions_total", c.Evictions, "artifacts evicted for the byte budget")
	gauge("zatel_store_entries", int64(c.Entries), "resident artifacts")
	gauge("zatel_store_bytes", c.Bytes, "resident artifact bytes")
	gauge("zatel_store_max_bytes", c.MaxBytes, "artifact byte budget (0 = unbounded)")
	gauge("zatel_store_inflight", int64(c.Inflight), "artifact builds executing")

	// Disk tier. zatel_store_disk_enabled stays 0 when no -store-dir was
	// given so dashboards can distinguish "off" from "degraded".
	if dc := stats.Disk; stats.DiskEnabled {
		gauge("zatel_store_disk_enabled", 1, "1 when a disk tier is attached")
		gauge("zatel_store_disk_degraded", boolGauge(dc.State == store.DiskDegraded.String()), "1 while the disk tier sheds writes (memory-only)")
		counter("zatel_store_disk_hits_total", dc.Hits, "lookups served from the disk tier")
		counter("zatel_store_disk_misses_total", dc.Misses, "disk-tier lookups that found no valid entry")
		counter("zatel_store_disk_read_errors_total", dc.ReadErrors, "disk-tier read failures (I/O, not corruption)")
		counter("zatel_store_disk_writes_total", dc.Writes, "entries persisted by the write-behind queue")
		counter("zatel_store_disk_write_errors_total", dc.WriteErrors, "failed disk-tier writes")
		counter("zatel_store_disk_writes_dropped_total", dc.WritesDropped, "writes shed while degraded or queue-full")
		counter("zatel_store_disk_quarantined_total", dc.Quarantined, "corrupt entries renamed aside")
		counter("zatel_store_disk_evictions_total", dc.Evictions, "disk entries evicted for the byte budget")
		counter("zatel_store_disk_degraded_total", dc.DegradedCount, "transitions into degraded mode")
		gauge("zatel_store_disk_entries", int64(dc.Entries), "valid entries on disk")
		gauge("zatel_store_disk_bytes", dc.Bytes, "bytes of valid entries on disk")
		gauge("zatel_store_disk_max_bytes", dc.MaxBytes, "disk byte budget (0 = unbounded)")
	} else {
		gauge("zatel_store_disk_enabled", 0, "1 when a disk tier is attached")
	}

	// Cluster tier. Fetch outcomes are disjoint (hits + misses + errors +
	// rejects == fetches issued); the store-level peer counters above
	// (zatel_store_peer_*) count the same events from the tier chain's
	// point of view and include self-owned/unhealthy-skipped consultations
	// as misses.
	counter("zatel_store_peer_hits_total", c.PeerHits, "lookups served from the peer tier")
	counter("zatel_store_peer_misses_total", c.PeerMisses, "peer-tier consultations that returned nothing")
	if cl := s.cfg.Cluster; cl != nil && stats.PeerEnabled {
		pc := stats.Peer
		gauge("zatel_cluster_enabled", 1, "1 when this node is part of a fleet")
		gauge("zatel_cluster_peers", int64(pc.Peers), "fleet size including this node")
		gauge("zatel_cluster_peers_healthy", int64(pc.Healthy), "peers currently considered reachable (self included)")
		counter("zatel_cluster_fetch_hits_total", pc.Hits, "peer artifact fetches that returned a verified artifact")
		counter("zatel_cluster_fetch_misses_total", pc.Misses, "peer artifact fetches the owner 404ed")
		counter("zatel_cluster_fetch_errors_total", pc.Errors, "peer artifact fetches that failed in transport")
		counter("zatel_cluster_fetch_rejects_total", pc.Rejects, "peer artifacts rejected by frame verification or codec decode")
		counter("zatel_cluster_fetch_skipped_total", pc.Skipped, "peer fetches skipped because the owner was unhealthy")
		counter("zatel_cluster_proxied_total", pc.Proxied, "predict requests forwarded to the owning peer")
		counter("zatel_cluster_proxy_errors_total", pc.ProxyErrors, "forwards that failed and fell back to a local build")
		counter("zatel_cluster_local_fallbacks_total", pc.LocalFallbacks, "predicts built locally because the owner was unavailable")
		fmt.Fprintf(w, "# HELP zatel_cluster_fetch_seconds latency of successful peer artifact fetches\n# TYPE zatel_cluster_fetch_seconds histogram\n")
		cl.FetchLatency().WriteProm(w, "zatel_cluster_fetch_seconds", "")
		fmt.Fprintf(w, "# HELP zatel_cluster_proxy_seconds latency of successful forwarded predict requests\n# TYPE zatel_cluster_proxy_seconds histogram\n")
		cl.ProxyLatency().WriteProm(w, "zatel_cluster_proxy_seconds", "")
	} else {
		gauge("zatel_cluster_enabled", 0, "1 when this node is part of a fleet")
	}

	gauge("zatel_predict_running", s.running.Load(), "predictions building now")
	gauge("zatel_predict_queued", s.queued.Load(), "builders waiting for an admission slot")
	gauge("zatel_predict_capacity", int64(s.cfg.MaxConcurrent), "admission slots")
	gauge("zatel_draining", boolGauge(s.draining.Load()), "1 while the server drains")
	fmt.Fprintf(w, "# HELP zatel_uptime_seconds time since server start\n# TYPE zatel_uptime_seconds gauge\nzatel_uptime_seconds %g\n",
		time.Since(s.start).Seconds())

	s.reqMu.Lock()
	keys := make([]reqKey, 0, len(s.reqCounts))
	for k := range s.reqCounts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].handler != keys[j].handler {
			return keys[i].handler < keys[j].handler
		}
		return keys[i].code < keys[j].code
	})
	fmt.Fprintf(w, "# HELP zatel_http_requests_total requests by handler and status\n# TYPE zatel_http_requests_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(w, "zatel_http_requests_total{handler=%q,code=\"%d\"} %d\n", k.handler, k.code, s.reqCounts[k])
	}
	s.reqMu.Unlock()

	fmt.Fprintf(w, "# HELP zatel_stage_latency_seconds per-stage latency\n# TYPE zatel_stage_latency_seconds histogram\n")
	s.histRequest.WriteProm(w, "zatel_stage_latency_seconds", `stage="request"`)
	s.histBuild.WriteProm(w, "zatel_stage_latency_seconds", `stage="build"`)
	s.histWait.WriteProm(w, "zatel_stage_latency_seconds", `stage="admission_wait"`)

	// Prediction quality: the worst relative CI half-width across metrics
	// of every served replicated (stratified/rankedset) prediction. The
	// bucket bounds are reused from the latency histograms and read as
	// unitless ratios here (0.05 = ±5%).
	fmt.Fprintf(w, "# HELP zatel_ci_halfwidth worst relative confidence-interval half-width of served replicated predictions\n# TYPE zatel_ci_halfwidth histogram\n")
	s.histCI.WriteProm(w, "zatel_ci_halfwidth", `kind="relative"`)

	// Per-pipeline-step latencies, one series per step span of DESIGN.md's
	// taxonomy, fed from the tracer of each request that ran a build.
	fmt.Fprintf(w, "# HELP zatel_step_latency_seconds per-pipeline-step latency of cold builds\n# TYPE zatel_step_latency_seconds histogram\n")
	for _, name := range core.StepSpanNames {
		s.histStep[name].WriteProm(w, "zatel_step_latency_seconds", fmt.Sprintf("step=%q", name))
	}

	// Process-wide registry: runner pool occupancy/retries and core
	// pipeline counters (see internal/obs and OPERATIONS.md).
	obs.WritePrometheus(w)
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (s *Server) methodNotAllowed(w http.ResponseWriter, r *http.Request, handler string, allow string) {
	s.countRequest(handler, http.StatusMethodNotAllowed)
	w.Header().Set("Allow", allow)
	writeError(w, r, http.StatusMethodNotAllowed, fmt.Sprintf("method %s not allowed", r.Method))
}
