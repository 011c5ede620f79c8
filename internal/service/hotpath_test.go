package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// captureLogs routes the process logger into a buffer for the test.
func captureLogs(t testing.TB) func() []string {
	t.Helper()
	var mu sync.Mutex
	var buf bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return strings.Split(strings.TrimSpace(buf.String()), "\n")
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func postWithID(t *testing.T, url, body, id string) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, url+"/v1/predict", strings.NewReader(body))
	req.Header.Set(RequestIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request %s: status %d", id, resp.StatusCode)
	}
	return resp
}

func linesWith(lines []string, sub string) []string {
	var out []string
	for _, l := range lines {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return out
}

// TestPredictLogsOneLine: OPERATIONS.md promises one structured line per
// request. The handler's attributes ride on the middleware's line; the
// separate "predict served" line is gone.
func TestPredictLogsOneLine(t *testing.T) {
	logs := captureLogs(t)
	_, ts := newTestServer(t, Config{NodeName: "solo"})
	const body = `{"scene":"SPRNG","config":"mobile","width":32,"height":32,"spp":1,"seed":21}`
	resp := postWithID(t, ts.URL, body, "log-cold")
	postWithID(t, ts.URL, body, "log-warm")

	for id, cache := range map[string]string{"log-cold": "miss", "log-warm": "hit"} {
		got := linesWith(logs(), "request_id="+id)
		if len(got) != 1 {
			t.Fatalf("%d log lines carry request_id=%s, want 1:\n%s", len(got), id, strings.Join(got, "\n"))
		}
		for _, want := range []string{"level=INFO", "msg=request", "node=solo", "path=/v1/predict", "status=200", "elapsed_ms=",
			"scene=SPRNG", "config=MobileSoC", "cache=" + cache, "key=" + resp.Header.Get("X-Zatel-Key"), "degraded=false"} {
			if !strings.Contains(got[0], want) {
				t.Errorf("request %s: log line lacks %q: %s", id, want, got[0])
			}
		}
	}
	if extra := linesWith(logs(), "predict served"); len(extra) != 0 {
		t.Errorf("the second per-request line is back: %v", extra)
	}
}

// TestForwardedPredictLogsOneLinePerNode: a forwarded request logs once on
// the node the client hit (owner and the owner's cache outcome) and once on
// the owner (the prediction's own attributes), under one request id.
func TestForwardedPredictLogsOneLinePerNode(t *testing.T) {
	logs := captureLogs(t)
	nodes := newTestFleet(t, 2)
	a, b := nodes[0], nodes[1]
	body, _ := bodyOwnedBy(t, nodes, a, 7)
	postWithID(t, b.url, body, "log-fwd")

	got := linesWith(logs(), "request_id=log-fwd")
	if len(got) != 2 {
		t.Fatalf("%d log lines carry request_id=log-fwd, want one per node:\n%s", len(got), strings.Join(got, "\n"))
	}
	front, owner := linesWith(got, "node=node-b"), linesWith(got, "node=node-a")
	if len(front) != 1 || !strings.Contains(front[0], "owner="+a.url) || !strings.Contains(front[0], "cache=miss") {
		t.Errorf("forwarding node's line lacks owner/cache: %v", front)
	}
	if len(owner) != 1 || !strings.Contains(owner[0], "scene=SPRNG") || !strings.Contains(owner[0], "cache=miss") {
		t.Errorf("owner's line lacks the prediction's attributes: %v", owner)
	}
}

// TestPredictResponseHasContentLength: a replicated prediction's response
// (about 6 KB) used to leave as Transfer-Encoding: chunked in several writes
// because nothing set Content-Length; it is one write of known length now,
// on the node that serves it and through a forward.
func TestPredictResponseHasContentLength(t *testing.T) {
	nodes := newTestFleet(t, 2)
	a, b := nodes[0], nodes[1]
	var body string
	for seed := 1; ; seed++ {
		body = `{"scene":"SPRNG","config":"rtx2060","width":32,"height":32,"spp":1,"dist":"stratified","percent":0.4,"seed":` + strconv.Itoa(seed) + `}`
		_, opts, err := a.srv.decodePredict([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if a.cl.Owner(opts.CacheKey()) == a.url {
			break
		}
	}
	for _, c := range []struct{ name, url, cache string }{
		{"forwarded miss", b.url, "miss"}, {"owner hit", a.url, "hit"}, {"peer", b.url, "peer"}, {"promoted hit", b.url, "hit"},
	} {
		resp, err := http.Post(c.url+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var pr PredictResponse
		if err := json.Unmarshal(raw, &pr); err != nil || pr.Cache != c.cache || len(pr.CILow) == 0 {
			t.Fatalf("%s: cache %q (want %q), %d intervals, decode error %v", c.name, pr.Cache, c.cache, len(pr.CILow), err)
		}
		if len(raw) <= 2048 {
			t.Errorf("%s: body is %d bytes; the test needs one past net/http's 2 KiB sniff buffer", c.name, len(raw))
		}
		if resp.ContentLength != int64(len(raw)) || resp.Header.Get("Content-Length") != strconv.Itoa(len(raw)) {
			t.Errorf("%s: Content-Length %d (header %q), body %d bytes", c.name, resp.ContentLength, resp.Header.Get("Content-Length"), len(raw))
		}
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Transfer-Encoding %v, want none", c.name, resp.TransferEncoding)
		}
	}
}

// discardResponse is the cheapest http.ResponseWriter there is, so that
// TestPredictHitAllocs counts the handler's allocations and not a recorder's.
type discardResponse struct {
	h    http.Header
	code int
}

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// TestPredictHitAllocs budgets the steady state of a warm fleet: one memory
// hit through the whole handler stack (middleware, decode, key, store,
// render, log line) with logging on, as zateld runs. 131 allocations before
// the fast path (reflective encode, string-built key, per-hit tracer and
// deadline timer, two log lines), 50 with it, a dozen of them the test's
// own request; 70 leaves room for a Go release to move a few without
// letting any of those four back in.
func TestPredictHitAllocs(t *testing.T) {
	captureLogs(t)
	s := New(Config{})
	h := s.Handler()
	const body = `{"scene":"SPRNG","config":"mobile","width":32,"height":32,"spp":1,"seed":33}`
	serve := func() *discardResponse {
		w := &discardResponse{h: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body)))
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
		return w
	}
	serve() // the build
	if got := serve().h.Get("X-Zatel-Cache"); got != "hit" {
		t.Fatalf("warm request served as %q, want hit", got)
	}
	avg := testing.AllocsPerRun(200, func() { serve() })
	t.Logf("warm /v1/predict hit: %.0f allocs/op", avg)
	if !raceEnabled && avg > 70 {
		t.Errorf("a memory hit allocates %.0f objects, budget 70", avg)
	}
}

// FuzzPredictRequest: an arbitrary body through decode, validation and key
// derivation. Nothing panics; whatever is rejected is answered 400 with the
// structured error body; whatever is accepted names one prediction, in that
// the decoded request marshalled again is accepted under the same key. (An
// accepted body is not sent through the handler: it would run the build.)
func FuzzPredictRequest(f *testing.F) {
	f.Add([]byte(`{"scene":"SPRNG","config":"mobile","width":48,"height":48,"spp":1}`))
	f.Add([]byte(`{"scene":"WKND","dist":"stratified","target_ci":0.1,"replicates":2,"confidence":0.99}`))
	f.Add([]byte(`{"scene":"SPRNG","percent":1.5}`))
	f.Add([]byte(``))
	captureLogs(f)
	s := New(Config{})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req, opts, err := s.decodePredict(body)
		if err != nil {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
			var eb errorBody
			if w.Code != http.StatusBadRequest || json.Unmarshal(w.Body.Bytes(), &eb) != nil || eb.Error == "" {
				t.Fatalf("rejected with %q, but the handler answered %d %q", err, w.Code, w.Body)
			}
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		_, opts2, err := s.decodePredict(again)
		if err != nil {
			t.Fatalf("accepted request %s is rejected once re-marshalled: %v", again, err)
		}
		if k1, k2 := opts.CacheKey(), opts2.CacheKey(); k1 != k2 {
			t.Fatalf("request %s changes key when re-marshalled: %s, then %s", again, k1.Short(), k2.Short())
		}
	})
}
