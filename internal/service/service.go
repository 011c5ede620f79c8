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
	"sync/atomic"
	"time"

	"zatel/internal/cluster"
	"zatel/internal/config"
	"zatel/internal/obs"
	"zatel/internal/scene"
	"zatel/internal/store"
)

// Config sizes the server. Zero values select production-sane defaults.
type Config struct {
	// Store holds the predictions (nil = a new unbounded store); the
	// server inserts nothing else. zateld passes store.Default(), where the
	// pipeline's workload traces and quantized heatmaps live too, so one
	// memory budget and one disk tier cover them all.
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

	// reg holds every series this server exports. histRequest, its
	// end-to-end predict latency, is kept at hand for the hit path.
	reg         *obs.Registry
	histRequest *obs.Histogram
}

// New returns a ready-to-serve server.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:   cfg,
		st:    cfg.Store,
		mux:   http.NewServeMux(),
		start: time.Now(),
		sem:   make(chan struct{}, cfg.MaxConcurrent),
	}
	s.newRegistry()
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

// SetDraining flips drain mode: /healthz turns 503 so load balancers stop
// routing here, and new predictions are refused while in-flight ones finish.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

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
		s.reg.Histogram(&stageLatency, "admission_wait").Observe(time.Since(waitStart))
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

func (s *Server) methodNotAllowed(w http.ResponseWriter, r *http.Request, handler string, allow string) {
	s.countRequest(handler, http.StatusMethodNotAllowed)
	w.Header().Set("Allow", allow)
	writeError(w, r, http.StatusMethodNotAllowed, fmt.Sprintf("method %s not allowed", r.Method))
}
