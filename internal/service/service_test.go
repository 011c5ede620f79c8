package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"zatel/internal/core"
	"zatel/internal/faults"
	"zatel/internal/store"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postPredict(t *testing.T, url string, body string) (*http.Response, PredictResponse, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/predict: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var pr PredictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatalf("decode response: %v\n%s", err, raw)
		}
	}
	return resp, pr, string(raw)
}

// TestPredictShapeAndWarmHit: a cold request returns the full JSON shape
// with cache=miss; the identical repeat is a store hit with the same key
// and identical predicted values.
func TestPredictShapeAndWarmHit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const body = `{"scene":"SPRNG","config":"mobile","width":40,"height":40,"spp":1}`

	resp, cold, _ := postPredict(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d", resp.StatusCode)
	}
	if cold.Cache != "miss" {
		t.Errorf("cold cache = %q, want miss", cold.Cache)
	}
	if len(cold.Key) != 64 {
		t.Errorf("key %q not a sha256 hex digest", cold.Key)
	}
	if cold.Scene != "SPRNG" || cold.Config != "MobileSoC" || cold.K < 1 {
		t.Errorf("header fields: %+v", cold)
	}
	if len(cold.Predicted) != 7 {
		t.Errorf("predicted has %d metrics, want 7", len(cold.Predicted))
	}
	if _, ok := cold.Predicted["GPU IPC"]; !ok {
		t.Errorf("predicted missing GPU IPC: %v", cold.Predicted)
	}
	if len(cold.Groups) != cold.K {
		t.Errorf("%d groups for K=%d", len(cold.Groups), cold.K)
	}
	if resp.Header.Get("X-Zatel-Cache") != "miss" {
		t.Errorf("X-Zatel-Cache = %q", resp.Header.Get("X-Zatel-Cache"))
	}

	resp, warm, _ := postPredict(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d", resp.StatusCode)
	}
	if warm.Cache != "hit" {
		t.Errorf("warm cache = %q, want hit", warm.Cache)
	}
	if warm.Key != cold.Key {
		t.Errorf("warm key %s != cold key %s", warm.Key, cold.Key)
	}
	for m, v := range cold.Predicted {
		if warm.Predicted[m] != v {
			t.Errorf("metric %s drifted: %v vs %v", m, warm.Predicted[m], v)
		}
	}
}

// TestPredictCoalescing: 8 concurrent identical cold requests perform
// exactly one prediction build — one responder reports miss, the rest
// coalesced, everyone gets the same key and values.
func TestPredictCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const body = `{"scene":"SPRNG","config":"mobile","width":44,"height":44,"spp":1,"seed":3}`

	const callers = 8
	var wg sync.WaitGroup
	codes := make([]int, callers)
	resps := make([]PredictResponse, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			json.NewDecoder(resp.Body).Decode(&resps[i])
		}(i)
	}
	close(start)
	wg.Wait()

	var miss, coalesced, hit int
	for i := 0; i < callers; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("caller %d: status %d", i, codes[i])
		}
		switch resps[i].Cache {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		case "hit":
			hit++ // possible if a caller arrived after the build landed
		}
		if resps[i].Key != resps[0].Key {
			t.Errorf("caller %d key %s != %s", i, resps[i].Key, resps[0].Key)
		}
		if resps[i].Predicted["GPU IPC"] != resps[0].Predicted["GPU IPC"] {
			t.Errorf("caller %d IPC differs", i)
		}
	}
	if miss != 1 {
		t.Errorf("%d misses (plus %d coalesced, %d hits), want exactly 1 build", miss, coalesced, hit)
	}
	// The service store holds exactly two artifacts for this workload: the
	// quantized heatmap and the prediction — so exactly two builds ran no
	// matter how many requests raced.
	if c := s.st.Snapshot(); c.Builds != 2 {
		t.Errorf("store builds = %d, want 2 (quant + predict): %+v", c.Builds, c)
	}
}

func TestScenesConfigsHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/scenes")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/scenes: %v %v", resp.StatusCode, err)
	}
	var scenes struct {
		Scenes []string `json:"scenes"`
	}
	json.NewDecoder(resp.Body).Decode(&scenes)
	resp.Body.Close()
	if len(scenes.Scenes) < 5 {
		t.Errorf("scene list too short: %v", scenes.Scenes)
	}

	resp, err = http.Get(ts.URL + "/v1/configs")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/configs: %v %v", resp.StatusCode, err)
	}
	var configs struct {
		Configs []configInfo `json:"configs"`
	}
	json.NewDecoder(resp.Body).Decode(&configs)
	resp.Body.Close()
	if len(configs.Configs) != 2 || configs.Configs[1].DownscaleK != 6 {
		t.Errorf("configs = %+v", configs.Configs)
	}

	resp, _ = http.Get(ts.URL + "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Draining flips healthz and predict to 503.
	s.SetDraining(true)
	resp, _ = http.Get(ts.URL + "/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	resp2, _, _ := postPredict(t, ts.URL, `{"scene":"SPRNG","config":"mobile","width":16,"height":16,"spp":1}`)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining predict status %d, want 503", resp2.StatusCode)
	}
}

func TestPredictBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"invalid json", `{"scene":`},
		{"unknown field", `{"scene":"SPRNG","bogus":1}`},
		{"missing scene", `{"config":"mobile"}`},
		{"unknown scene", `{"scene":"NOPE"}`},
		{"unknown config", `{"scene":"SPRNG","config":"voodoo"}`},
		{"unknown division", `{"scene":"SPRNG","division":"diagonal"}`},
		{"unknown dist", `{"scene":"SPRNG","dist":"gauss"}`},
		{"bad percent", `{"scene":"SPRNG","percent":1.5}`},
		{"negative timeout", `{"scene":"SPRNG","timeout_ms":-5}`},
		{"negative width", `{"scene":"SPRNG","width":-8}`},
		{"regression with a replicated strategy", `{"scene":"SPRNG","dist":"stratified","regression":true}`},
		{"percent above max_percent", `{"scene":"SPRNG","percent":0.5,"max_percent":0.1}`},
		{"regression under a percent below 0.4", `{"scene":"SPRNG","regression":true,"percent":0.3}`},
		{"regression under a max_percent below 0.4", `{"scene":"SPRNG","regression":true,"max_percent":0.1}`},
	}
	for _, c := range cases {
		resp, _, raw := postPredict(t, ts.URL, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, raw)
		}
		if !strings.Contains(raw, `"error"`) {
			t.Errorf("%s: error body missing: %s", c.name, raw)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET predict: status %d, want 405", resp.StatusCode)
	}
}

// TestPredictDeadline: a 1ms deadline cannot cover a cold full pipeline;
// the request must come back 504 with the deadline mapped through ctx.
func TestPredictDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"scene":"PARK","config":"rtx2060","width":96,"height":96,"spp":1,"timeout_ms":1}`
	resp, _, raw := postPredict(t, ts.URL, body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504 (%s)", resp.StatusCode, raw)
	}
}

// TestMetricsExposition: the Prometheus page carries the store counters,
// admission gauges, request totals and stage histograms, and the store hit
// from a warm request is visible in it.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const body = `{"scene":"SPRNG","config":"mobile","width":36,"height":36,"spp":1}`
	postPredict(t, ts.URL, body)
	postPredict(t, ts.URL, body) // warm: one store hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %v %v", resp, err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	var buf bytes.Buffer
	io.Copy(&buf, resp.Body)
	resp.Body.Close()
	page := buf.String()

	for _, want := range []string{
		"zatel_store_hits_total 1",
		"zatel_store_misses_total",
		"zatel_store_coalesced_total",
		"zatel_store_evictions_total",
		"zatel_store_inflight 0",
		"zatel_predict_capacity",
		"zatel_predict_running 0",
		`zatel_http_requests_total{handler="predict",code="200"} 2`,
		`zatel_stage_latency_seconds_bucket{stage="request",le="+Inf"} 2`,
		`zatel_stage_latency_seconds_bucket{stage="build",le="+Inf"} 1`,
		`zatel_stage_latency_seconds_count{stage="request"} 2`,
		"zatel_uptime_seconds",
		`zatel_step_latency_seconds_bucket{step="step1_profile",le="+Inf"} 1`,
		`zatel_step_latency_seconds_count{step="step7_combine"} 1`,
		"zatel_predictions_total",
		"zatel_runner_jobs_total",
		"zatel_runner_active_workers",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
}

// TestRequestIDRoundTrip: a caller-supplied X-Zatel-Request-Id is echoed on
// the response header and body; without one the server mints a 16-hex id.
func TestRequestIDRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const body = `{"scene":"SPRNG","config":"mobile","width":32,"height":32,"spp":1,"seed":7}`

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "req-roundtrip-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var pr PredictResponse
	json.NewDecoder(resp.Body).Decode(&pr)
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "req-roundtrip-1" {
		t.Errorf("response header %s = %q, want caller's id echoed", RequestIDHeader, got)
	}
	if pr.RequestID != "req-roundtrip-1" {
		t.Errorf("body request_id = %q, want caller's id echoed", pr.RequestID)
	}

	// No header: the server mints one and reports it in both places.
	resp2, pr2, _ := postPredict(t, ts.URL, body)
	minted := resp2.Header.Get(RequestIDHeader)
	if len(minted) != 16 {
		t.Errorf("minted request id %q, want 16 hex chars", minted)
	}
	if pr2.RequestID != minted {
		t.Errorf("body request_id %q != header %q", pr2.RequestID, minted)
	}
}

// TestPredictTraceExport: ?trace=1 embeds a Chrome trace_event export in
// the response whose metadata carries the request id and whose events
// include every pipeline step span.
func TestPredictTraceExport(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const body = `{"scene":"SPRNG","config":"mobile","width":32,"height":32,"spp":1,"seed":9}`

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict?trace=1", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "req-traced-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if len(pr.Trace) == 0 {
		t.Fatalf("trace=1 response has no trace field")
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
		Metadata map[string]string `json:"metadata"`
	}
	if err := json.Unmarshal(pr.Trace, &trace); err != nil {
		t.Fatalf("trace field is not valid Chrome trace JSON: %v", err)
	}
	if trace.Metadata["request_id"] != "req-traced-1" {
		t.Errorf("trace metadata request_id = %q, want req-traced-1", trace.Metadata["request_id"])
	}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		names[ev.Name] = true
	}
	for _, step := range core.StepSpanNames {
		if !names[step] {
			t.Errorf("trace export missing %s span", step)
		}
	}

	// Without ?trace=1 the response must not carry the trace payload.
	_, plain, _ := postPredict(t, ts.URL, body)
	if len(plain.Trace) != 0 {
		t.Errorf("untraced response carries a trace field (%d bytes)", len(plain.Trace))
	}
}

// TestErrorBodyCarriesRequestID: error responses are structured JSON with
// both the message and the request id, so clients can quote the id when
// reporting failures.
func TestErrorBodyCarriesRequestID(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", strings.NewReader(`{"scene":"NOPE"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, "req-err-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var eb struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
	if eb.Error == "" || eb.RequestID != "req-err-1" {
		t.Errorf("error body = %+v, want error message and request_id req-err-1", eb)
	}
}

// TestAdmissionControl: with one slot and a queue of one, a third builder
// is shed with errTooBusy, and a queued builder honours its context.
func TestAdmissionControl(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: 1, Store: store.New(0)})

	if err := s.acquire(context.Background()); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// Second builder parks in the queue.
	queuedErr := make(chan error, 1)
	go func() {
		err := s.acquire(context.Background())
		if err == nil {
			s.release()
		}
		queuedErr <- err
	}()
	for s.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Third is shed immediately.
	if err := s.acquire(context.Background()); !errors.Is(err, errTooBusy) {
		t.Errorf("third acquire: %v, want errTooBusy", err)
	}
	// Releasing the slot admits the queued builder.
	s.release()
	if err := <-queuedErr; err != nil {
		t.Errorf("queued acquire: %v", err)
	}

	// A queued builder with a dead context gives up with its ctx error.
	if err := s.acquire(context.Background()); err != nil {
		t.Fatalf("refill: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled queued acquire: %v", err)
	}
	s.release()
}

// healthzBody fetches and decodes /healthz regardless of status code.
func healthzBody(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("/healthz: %v", err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	return resp.StatusCode, body
}

// TestHealthzReportsStoreAndDisk: /healthz carries memory-store occupancy
// and the disk tier's state — "disabled" without a tier, "ok" with one.
func TestHealthzReportsStoreAndDisk(t *testing.T) {
	st := store.New(1 << 20)
	_, ts := newTestServer(t, Config{Store: st})

	code, body := healthzBody(t, ts.URL)
	if code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	sb, ok := body["store"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing store block: %v", body)
	}
	if sb["max_bytes"].(float64) != 1<<20 {
		t.Errorf("store.max_bytes = %v, want %d", sb["max_bytes"], 1<<20)
	}
	db, ok := body["disk"].(map[string]any)
	if !ok {
		t.Fatalf("healthz missing disk block: %v", body)
	}
	if db["state"] != "disabled" {
		t.Errorf("disk.state = %v, want disabled", db["state"])
	}

	d, err := store.OpenDisk(store.DiskConfig{Dir: t.TempDir(), MaxBytes: 1 << 20})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	defer d.Close()
	st.AttachDisk(d)
	_, body = healthzBody(t, ts.URL)
	db = body["disk"].(map[string]any)
	if db["state"] != "ok" {
		t.Errorf("disk.state = %v, want ok", db["state"])
	}
	if _, ok := db["max_bytes"]; !ok {
		t.Errorf("disk block missing max_bytes: %v", db)
	}
}

// TestPredictServesWhileDiskDegraded: a disk tier on a "full" filesystem
// (every write draws ENOSPC) flips to degraded — and predictions keep
// answering 200 from the memory tier, which is the whole point of the
// fail-soft design. /healthz and /metrics both surface the degradation.
func TestPredictServesWhileDiskDegraded(t *testing.T) {
	st := store.New(0)
	ffs, err := faults.NewFaultFS(nil, faults.FSConfig{ENOSPCRate: 1, Seed: 7})
	if err != nil {
		t.Fatalf("NewFaultFS: %v", err)
	}
	d, err := store.OpenDisk(store.DiskConfig{Dir: t.TempDir(), FS: ffs})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	defer d.Close()
	st.AttachDisk(d)
	_, ts := newTestServer(t, Config{Store: st})

	resp, pr, raw := postPredict(t, ts.URL, `{"scene":"SPRNG","config":"mobile","width":36,"height":36,"spp":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict with failing disk: status %d\n%s", resp.StatusCode, raw)
	}
	if pr.Cache != "miss" {
		t.Errorf("cache = %q, want miss", pr.Cache)
	}
	d.Flush()
	if s := d.State(); s != store.DiskDegraded {
		t.Fatalf("disk state = %v, want degraded", s)
	}

	_, body := healthzBody(t, ts.URL)
	if db := body["disk"].(map[string]any); db["state"] != "degraded" {
		t.Errorf("healthz disk.state = %v, want degraded", db["state"])
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"zatel_store_disk_enabled 1",
		"zatel_store_disk_degraded 1",
		"zatel_store_disk_write_errors_total",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The prediction itself is still served warm from memory.
	resp2, warm, _ := postPredict(t, ts.URL, `{"scene":"SPRNG","config":"mobile","width":36,"height":36,"spp":1}`)
	if resp2.StatusCode != http.StatusOK || warm.Cache != "hit" {
		t.Errorf("warm repeat: status %d cache %q", resp2.StatusCode, warm.Cache)
	}
}
