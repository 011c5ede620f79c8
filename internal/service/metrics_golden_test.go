package service

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"zatel/internal/store"
)

// metricsGoldenPath pins the /metrics exposition of fixed scenarios.
// Regenerate only on an intended change to the exported series:
//
//	ZATEL_UPDATE_GOLDEN=1 go test ./internal/service -run TestMetricsGolden
const metricsGoldenPath = "testdata/metrics_golden.txt"

// volatileMetric reports whether a sample line's value depends on timing
// rather than on the requests a server served: uptime, the bucket
// placement and sum of a latency histogram (its _count is still pinned),
// and resident bytes, since a cached prediction carries its build timings.
// In a fleet, which node owns a build's input artifacts (the workload and
// the heatmap) follows the listeners' random ports, so a node's fetch
// misses and its artifact 404s are not pinned either.
func volatileMetric(series string, fleet bool) bool {
	if fleet && (strings.HasPrefix(series, "zatel_cluster_fetch_misses_total") ||
		strings.HasPrefix(series, `zatel_http_requests_total{handler="artifacts"`)) {
		return true
	}
	name := series
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	if name == "zatel_uptime_seconds" || strings.HasSuffix(name, "_bytes") && !strings.HasSuffix(name, "_max_bytes") {
		return true
	}
	for _, suffix := range []string{"_bucket", "_sum"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && strings.HasSuffix(base, "_seconds") {
			return true
		}
	}
	return false
}

// normalizeMetrics reduces an exposition to what the golden pins: one
// "# TYPE" line per family and one line per series, values of volatile
// series replaced by "_", sorted so that family and series order do not
// matter. HELP text is not pinned. A volatile series whose presence varies
// (a label value) is dropped rather than blanked.
func normalizeMetrics(text string, fleet bool) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# "):
			out = append(out, line)
		default:
			i := strings.LastIndexByte(line, ' ')
			series, value := line[:i], line[i+1:]
			if volatileMetric(series, fleet) {
				if strings.Contains(series, `handler="artifacts"`) {
					continue
				}
				value = "_"
			}
			out = append(out, series+" "+value)
		}
	}
	sort.Strings(out)
	return out
}

func getMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, err %v", resp.StatusCode, err)
	}
	return string(raw)
}

// TestMetricsGolden pins every exported series' name, labels and type, and
// the value of every series that is deterministic per server, in two
// scenarios: a single node with a disk tier after a build, a hit and a
// 400; and a two-node fleet where the non-owner forwards a cold request
// and then serves the repeat from the peer tier.
func TestMetricsGolden(t *testing.T) {
	var sections []string
	section := func(name, text string, fleet bool) {
		sections = append(sections, "== "+name+"\n"+strings.Join(normalizeMetrics(text, fleet), "\n")+"\n")
	}

	st := store.New(0)
	d, err := store.OpenDisk(store.DiskConfig{Dir: t.TempDir(), MaxBytes: 64 << 20})
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	defer d.Close()
	st.AttachDisk(d)
	_, ts := newTestServer(t, Config{Store: st, MaxConcurrent: 2, NodeName: "golden"})
	const body = `{"scene":"SPRNG","config":"mobile","width":32,"height":32,"spp":1}`
	for i, want := range []int{http.StatusOK, http.StatusOK, http.StatusBadRequest} {
		b := body
		if want == http.StatusBadRequest {
			b = `{"scene":"NOPE"}`
		}
		if resp, _, raw := postPredict(t, ts.URL, b); resp.StatusCode != want {
			t.Fatalf("request %d: status %d, want %d\n%s", i, resp.StatusCode, want, raw)
		}
	}
	d.Flush()
	section("single node with a disk tier: build, hit, 400", getMetrics(t, ts.URL), false)

	nodes := newTestFleet(t, 2)
	owner, front := nodes[0], nodes[1]
	fbody, _ := bodyOwnedBy(t, nodes, owner, 1)
	for i, want := range []string{"miss", "peer"} {
		if resp, pr, raw := postPredict(t, front.url, fbody); resp.StatusCode != http.StatusOK || pr.Cache != want {
			t.Fatalf("fleet request %d: status %d cache %q, want %q\n%s", i, resp.StatusCode, pr.Cache, want, raw)
		}
	}
	section("fleet owner", getMetrics(t, owner.url), true)
	section("fleet non-owner: forward, then peer fetch", getMetrics(t, front.url), true)

	got := strings.Join(sections, "\n")
	if os.Getenv("ZATEL_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(metricsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metricsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(metricsGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with ZATEL_UPDATE_GOLDEN=1 go test ./internal/service -run TestMetricsGolden)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d: got %q, want %q", i+1, g, w)
			}
		}
	}
}
