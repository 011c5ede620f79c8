package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"zatel/internal/cluster"
	"zatel/internal/config"
	"zatel/internal/core"
	"zatel/internal/metrics"
	"zatel/internal/obs"
	"zatel/internal/sampling"
	"zatel/internal/store"
)

// PredictRequest is the POST /v1/predict body. Zero values select the
// paper's defaults (128×128, 2 spp, fine division, uniform distribution,
// Eq. 1 budget, seed 1).
type PredictRequest struct {
	Scene  string `json:"scene"`
	Config string `json:"config"`
	Width  int    `json:"width"`
	Height int    `json:"height"`
	SPP    int    `json:"spp"`

	Division    string  `json:"division,omitempty"`
	Dist        string  `json:"dist,omitempty"`
	Percent     float64 `json:"percent,omitempty"`
	MaxPercent  float64 `json:"max_percent,omitempty"`
	K           int     `json:"k,omitempty"`
	NoDownscale bool    `json:"no_downscale,omitempty"`
	Regression  bool    `json:"regression,omitempty"`
	QuantLevels int     `json:"quant_levels,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`

	// TargetCI enables adaptive sample sizing for the replicated
	// distributions (stratified, rankedset): each group grows its subset
	// until every metric's relative CI half-width is at most this value.
	TargetCI float64 `json:"target_ci,omitempty"`
	// Replicates overrides the sub-draws per round (0 = default 5, else ≥2);
	// Confidence the CI level (0 = 0.95; 0.90 and 0.99 also supported);
	// MaxRounds the adaptive round cap (0 = default 4). All three apply to
	// the replicated distributions only.
	Replicates int     `json:"replicates,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	MaxRounds  int     `json:"max_rounds,omitempty"`

	Attempts int `json:"attempts,omitempty"`
	Quorum   int `json:"quorum,omitempty"`
	// TimeoutMs is this request's whole-prediction deadline; absent or 0
	// selects the server default and values above the server maximum clamp.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// GroupInfo summarises one group run for the response. Replicates, Rounds
// and TargetMet appear only for the replicated distributions; TargetMet is
// meaningful when Rounds > 0 (it is trivially true when no target_ci was
// requested).
type GroupInfo struct {
	Pixels     int     `json:"pixels"`
	Selected   int     `json:"selected"`
	Fraction   float64 `json:"fraction"`
	Attempts   int     `json:"attempts"`
	Cycles     uint64  `json:"cycles"`
	Replicates int     `json:"replicates,omitempty"`
	Rounds     int     `json:"rounds,omitempty"`
	TargetMet  bool    `json:"target_met,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// DegradedInfo reports a prediction that lost groups but met quorum.
type DegradedInfo struct {
	FailedGroups []int  `json:"failed_groups"`
	Quorum       int    `json:"quorum"`
	Survivors    int    `json:"survivors"`
	Total        int    `json:"total"`
	Detail       string `json:"detail"`
}

// PredictResponse is the POST /v1/predict result.
type PredictResponse struct {
	Scene  string `json:"scene"`
	Config string `json:"config"`
	K      int    `json:"k"`
	// Key is the prediction's content address in the artifact store;
	// identical requests report identical keys.
	Key string `json:"key"`
	// Cache is how this request was served: "miss" (this request built),
	// "hit" (already resident), "coalesced" (joined another request's
	// in-flight build), "disk" (loaded and integrity-verified from the
	// persistent tier, e.g. after a restart) or "peer" (fetched, verified
	// and promoted from the owning cluster peer).
	Cache     string             `json:"cache"`
	Predicted map[string]float64 `json:"predicted"`
	// CILow/CIHigh bound each metric's confidence interval and Replicates
	// reports the sub-draws behind it; present only for the replicated
	// distributions (stratified, rankedset), where Predicted holds the
	// interval means.
	CILow      map[string]float64 `json:"ci_low,omitempty"`
	CIHigh     map[string]float64 `json:"ci_high,omitempty"`
	Replicates int                `json:"replicates,omitempty"`
	Groups     []GroupInfo        `json:"groups"`
	Degraded   *DegradedInfo      `json:"degraded,omitempty"`
	// PreprocessMs/SimWallMs/TotalCPUMs are the timings of the build that
	// produced the artifact (a cached result keeps its original build's
	// timings); ElapsedMs is what this request actually took.
	PreprocessMs float64 `json:"preprocess_ms"`
	SimWallMs    float64 `json:"sim_wall_ms"`
	TotalCPUMs   float64 `json:"total_cpu_ms"`
	ElapsedMs    float64 `json:"elapsed_ms"`
	// RequestID echoes the X-Zatel-Request-Id header: the server's log
	// lines for this request carry the same ID.
	RequestID string `json:"request_id"`
	// Trace is the Chrome trace_event JSON of this request's pipeline
	// execution, present only with ?trace=1. Save it to a file and load it
	// in chrome://tracing or https://ui.perfetto.dev. A cache hit traces
	// only the store lookup — the steps ran (and were traced) by whichever
	// request built the artifact.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// errorBody is every non-2xx JSON payload: the message plus the request's
// correlation ID, so a client-side error report and the server-side log
// line it corresponds to can be matched without timestamps.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError emits the structured JSON error body; the request ID comes
// from the middleware via r's context.
func writeError(w http.ResponseWriter, r *http.Request, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg, RequestID: obs.RequestID(r.Context())})
}

// ConfigByName is config.ByName. It stays only because the frozen
// internal/bench package (the benchmark's own code, which this repo's PRs
// may not edit) calls it.
func ConfigByName(name string) (config.Config, error) { return config.ByName(name) }

// optionsFor translates the request into pipeline options: it resolves the
// config, division and distribution names and the deadline, and leaves
// every range and combination check to core.Options.Validate. Every error
// it returns is a client error (HTTP 400).
func (s *Server) optionsFor(req *PredictRequest) (core.Options, error) {
	o := core.Options{
		Scene: req.Scene,
		Width: req.Width, Height: req.Height, SPP: req.SPP,
		FixedFraction:     req.Percent,
		MaxFraction:       req.MaxPercent,
		K:                 req.K,
		NoDownscale:       req.NoDownscale,
		Regression:        req.Regression,
		QuantLevels:       req.QuantLevels,
		Seed:              req.Seed,
		TargetCIHalfWidth: req.TargetCI,
		Sampling: core.SamplingOptions{
			Replicates: req.Replicates, Confidence: req.Confidence, MaxRounds: req.MaxRounds,
		},
		FT:       core.FaultTolerance{Attempts: req.Attempts, Quorum: req.Quorum},
		Parallel: s.cfg.Parallel,
		Workers:  s.cfg.Workers,
		Store:    s.st,
	}
	var err error
	if o.Config, err = config.ByName(req.Config); err != nil {
		return o, err
	}
	if o.Division, err = core.ParseDivision(req.Division); err != nil {
		return o, err
	}
	if o.Dist, err = sampling.ParseDistribution(strings.ToLower(req.Dist)); err != nil {
		return o, err
	}
	if req.TimeoutMs < 0 {
		return o, fmt.Errorf("negative timeout_ms %d", req.TimeoutMs)
	}
	return o, o.Validate()
}

// decodePredict parses and validates a request body. Like optionsFor, every
// error it returns is a client error (HTTP 400).
func (s *Server) decodePredict(body []byte) (PredictRequest, core.Options, error) {
	var req PredictRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, core.Options{}, fmt.Errorf("bad request body: %v", err)
	}
	opts, err := s.optionsFor(&req)
	return req, opts, err
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, r, "predict", http.MethodPost)
		return
	}
	reqStart := time.Now()
	reqID := obs.RequestID(r.Context())
	finish := func(code int) {
		s.countRequest("predict", code)
		s.histRequest.Observe(time.Since(reqStart))
	}
	if s.draining.Load() {
		finish(http.StatusServiceUnavailable)
		writeError(w, r, http.StatusServiceUnavailable, "server draining")
		return
	}

	// The body is read whole rather than stream-decoded: cluster routing may
	// need the raw bytes again to forward the request to the owning peer.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		finish(http.StatusBadRequest)
		writeError(w, r, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	req, opts, err := s.decodePredict(body)
	if err != nil {
		finish(http.StatusBadRequest)
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}

	key := opts.CacheKey()
	cl := s.cfg.Cluster
	var owner string
	if cl != nil {
		owner = cl.Owner(key)
		w.Header().Set(OwnerHeader, owner)
	}

	// ?trace=1 returns the request's Chrome trace_event export inline, so
	// that request carries a tracer from the start. Any other request gets
	// one only if it ends up running the build (below).
	ctx := r.Context()
	var tr *obs.Tracer
	if r.URL.Query().Get("trace") == "1" {
		tr = obs.NewTracer()
		tr.SetMeta("request_id", reqID)
		ctx = obs.WithTracer(ctx, tr)
	}

	// The steady state of a warm fleet: the prediction is in memory here,
	// whichever node owns it. Nothing waits, so the hit needs neither the
	// deadline's timer nor a tracer of its own.
	if v, _, ok := s.st.Get(ctx, key, store.Memory); ok {
		s.writePredictOK(w, r, &opts, key, store.Hit, v.(*core.Result), reqStart, tr, finish)
		return
	}

	// The request deadline governs everything below: admission wait, a
	// coalesced wait on someone else's build, and every pipeline stage of
	// a build this request runs itself.
	ctx, cancel := context.WithTimeout(ctx, s.deadlineFor(req.TimeoutMs))
	defer cancel()

	// Cluster routing: on a non-owner, anything the fleet already has —
	// local memory/disk, an in-flight local build, or the owner's copy via
	// the peer tier — serves locally; a true fleet-wide miss forwards the
	// request to the owner so every key is built where it lives. A request
	// already forwarded once is served here unconditionally (no loops), and
	// an unreachable owner degrades to a local build, never an error.
	if cl != nil && owner != cl.Self() && r.Header.Get(cluster.ForwardedHeader) == "" {
		if v, outcome, ok := s.st.Get(ctx, key, store.Chain); ok {
			s.writePredictOK(w, r, &opts, key, outcome, v.(*core.Result), reqStart, tr, finish)
			return
		}
		if cl.Healthy(owner) && s.proxyToOwner(w, r, cl, owner, body, finish) {
			return
		}
		cl.CountLocalFallback()
		slog.Warn("cluster: owner unavailable, building locally",
			"request_id", reqID, "key", key.Short(), "owner", owner)
	}

	// stepTracer is the tracer whose step spans feed the per-step latency
	// histograms: the request's own, or one made for the build it runs.
	stepTracer := tr
	v, outcome, err := s.st.GetOrBuild(ctx, key, func(ctx context.Context) (any, int64, error) {
		// Admission control bounds cold builds only — hits and coalesced
		// waiters cost no slot.
		if err := s.acquire(ctx); err != nil {
			return nil, 0, err
		}
		defer s.release()
		if stepTracer == nil {
			stepTracer = obs.NewTracer()
			ctx = obs.WithTracer(ctx, stepTracer)
		}
		buildStart := time.Now()
		res, err := core.PredictContext(obs.WithRegistry(ctx, s.reg), opts)
		s.reg.Histogram(&stageLatency, "build").Observe(time.Since(buildStart))
		if err != nil {
			return nil, 0, err
		}
		if res.Intervals != nil {
			s.reg.Histogram(&ciHalfwidth, "relative").ObserveValue(res.Intervals.MaxRelHalfWidth())
		}
		// Cache what a response needs and no more: the heatmap stays the
		// store's quant/v1 artifact, not a per-prediction copy.
		res.Quantized = nil
		return res, core.ResultSize(res), nil
	})
	// Only a build records step spans, whether or not it succeeded.
	if outcome == store.Miss {
		durations := stepTracer.Durations()
		for _, name := range core.StepSpanNames {
			if d, ok := durations[name]; ok {
				s.reg.Histogram(&stepLatency, name).Observe(d)
			}
		}
	}
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, errTooBusy):
			code = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		case errors.Is(err, context.DeadlineExceeded):
			code = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			code = http.StatusServiceUnavailable
		}
		finish(code)
		writeError(w, r, code, err.Error())
		return
	}
	s.writePredictOK(w, r, &opts, key, outcome, v.(*core.Result), reqStart, tr, finish)
}

// proxyToOwner forwards the predict request to the owning peer and relays
// its response verbatim (plus this node's own routing headers, already
// set). Returns false when the forward failed — the caller then builds
// locally, honouring the never-an-error contract.
func (s *Server) proxyToOwner(w http.ResponseWriter, r *http.Request, cl *cluster.Cluster, owner string, body []byte, finish func(int)) bool {
	resp, err := cl.ProxyPredict(r.Context(), owner, r.URL.RawQuery, r.Header, body)
	if err != nil {
		slog.Warn("cluster: forward to owner failed",
			"request_id", obs.RequestID(r.Context()), "owner", owner, "err", err)
		return false
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Content-Length", "X-Zatel-Cache", "X-Zatel-Key"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	logAttrs(w, slog.String("owner", owner), slog.String("cache", resp.Header.Get("X-Zatel-Cache")))
	finish(resp.StatusCode)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// renderPool recycles response buffers between requests.
var renderPool = sync.Pool{New: func() any { return new(jsonw) }}

// writePredictOK renders the successful prediction response; every way a
// prediction is served ends here. tr is non-nil for a ?trace=1 request.
func (s *Server) writePredictOK(w http.ResponseWriter, r *http.Request, opts *core.Options, key store.Digest, outcome store.Outcome, res *core.Result, reqStart time.Time, tr *obs.Tracer, finish func(int)) {
	resp := PredictResponse{
		Scene:        opts.Scene,
		Config:       opts.Config.Name,
		K:            res.K,
		Key:          key.String(),
		Cache:        outcome.String(),
		Predicted:    make(map[string]float64, len(res.Predicted)),
		Groups:       make([]GroupInfo, len(res.Groups)),
		PreprocessMs: durMs(res.PreprocessTime),
		SimWallMs:    durMs(res.SimWallTime),
		TotalCPUMs:   durMs(res.TotalCPUTime),
		ElapsedMs:    durMs(time.Since(reqStart)),
		RequestID:    obs.RequestID(r.Context()),
	}
	if tr != nil {
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err == nil {
			resp.Trace = json.RawMessage(buf.Bytes())
		}
	}
	for _, m := range metrics.All() {
		resp.Predicted[m.String()] = res.Predicted[m]
	}
	if res.Intervals != nil {
		resp.CILow = make(map[string]float64, len(res.Intervals))
		resp.CIHigh = make(map[string]float64, len(res.Intervals))
		for m, iv := range res.Intervals {
			resp.CILow[m.String()] = iv.Low
			resp.CIHigh[m.String()] = iv.High
			if resp.Replicates == 0 || iv.Replicates < resp.Replicates {
				resp.Replicates = iv.Replicates
			}
		}
	}
	for gi, g := range res.Groups {
		info := GroupInfo{
			Pixels:     g.Pixels,
			Selected:   g.Selected,
			Fraction:   g.Fraction,
			Attempts:   g.Attempts,
			Cycles:     g.Report.Cycles,
			Replicates: g.Replicates,
			Rounds:     g.Rounds,
			TargetMet:  g.TargetMet,
		}
		if g.Err != nil {
			info.Error = g.Err.Error()
		}
		resp.Groups[gi] = info
	}
	if d := res.Degraded; d != nil {
		resp.Degraded = &DegradedInfo{
			FailedGroups: d.FailedGroups,
			Quorum:       d.Quorum,
			Survivors:    d.Survivors,
			Total:        d.Total,
			Detail:       d.String(),
		}
	}

	out := renderPool.Get().(*jsonw)
	defer renderPool.Put(out)
	out.b, out.err = out.b[:0], nil
	out.predictResponse(&resp)
	if out.err != nil {
		finish(http.StatusInternalServerError)
		writeError(w, r, http.StatusInternalServerError, out.err.Error())
		return
	}
	short := key.Short()
	logAttrs(w, slog.String("scene", resp.Scene), slog.String("config", resp.Config),
		slog.String("cache", resp.Cache), slog.String("key", short), slog.Bool("degraded", resp.Degraded != nil))
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(out.b)))
	h.Set("X-Zatel-Cache", resp.Cache)
	h.Set("X-Zatel-Key", short)
	finish(http.StatusOK)
	w.WriteHeader(http.StatusOK)
	w.Write(out.b)
}

func durMs(d time.Duration) float64 { return float64(d) / 1e6 }
