package service

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite OPERATIONS.md's generated metric tables")

// TestMetricsPerServer: each server counts only the work it did. One build
// on A moves A's pipeline and pool counters by exact amounts and leaves a
// second server B, in the same process, at zero.
func TestMetricsPerServer(t *testing.T) {
	_, a := newTestServer(t, Config{})
	_, b := newTestServer(t, Config{})
	if resp, _, raw := postPredict(t, a.URL, `{"scene":"SPRNG","config":"mobile","width":32,"height":32,"spp":1}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("build on A: status %d\n%s", resp.StatusCode, raw)
	}
	for _, c := range []struct {
		url  string
		want []string
	}{
		// MobileSoC downscales by K=4: one prediction, four group jobs, and
		// two store builds (the prediction and its quantized heatmap).
		{a.URL, []string{"zatel_predictions_total 1", "zatel_runner_jobs_total 4", "zatel_runner_job_failures_total 0",
			"zatel_predict_group_failures_total 0", "zatel_store_builds_total 2", `zatel_http_requests_total{handler="predict",code="200"} 1`}},
		{b.URL, []string{"zatel_predictions_total 0", "zatel_runner_jobs_total 0", "zatel_store_builds_total 0"}},
	} {
		text := "\n" + getMetrics(t, c.url)
		for _, want := range c.want {
			if !strings.Contains(text, "\n"+want+"\n") {
				t.Errorf("%s: /metrics has no line %q", c.url, want)
			}
		}
	}
}

// metricTable renders one OPERATIONS.md metric table from the declarations.
func metricTable(ms []metric) string {
	var b strings.Builder
	b.WriteString("| Metric | Type | Meaning |\n|---|---|---|\n")
	for _, m := range ms {
		name := m.Name
		if len(m.Labels) > 0 {
			name += "{" + strings.Join(m.Labels, ",") + "}"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", name, m.Type, m.Help)
	}
	return b.String()
}

// TestOperationsMetricTables: OPERATIONS.md's metric tables are generated
// from metricTables, so a series cannot be exported undocumented or be
// documented in other words than its HELP line. Regenerate with
//
//	go test ./internal/service -run TestOperationsMetricTables -update
func TestOperationsMetricTables(t *testing.T) {
	const path, end = "../../OPERATIONS.md", "<!-- /metrics -->"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	if n := strings.Count(doc, "<!-- metrics:"); n != len(metricTables) {
		t.Errorf("OPERATIONS.md has %d generated metric tables, want %d", n, len(metricTables))
	}
	for _, tb := range metricTables {
		for _, m := range tb.metrics {
			if strings.ContainsAny(m.Help, "|\\\n") {
				t.Errorf("%s: help text %q must not hold '|', '\\' or a newline", m.Name, m.Help)
			}
		}
		begin := "<!-- metrics:" + tb.name + " -->\n"
		i := strings.Index(doc, begin)
		if i < 0 {
			t.Errorf("OPERATIONS.md has no %q block", begin)
			continue
		}
		i += len(begin)
		j := strings.Index(doc[i:], end)
		if j < 0 {
			t.Errorf("OPERATIONS.md block %q has no %q", tb.name, end)
			continue
		}
		if want := metricTable(tb.metrics); doc[i:i+j] != want {
			if !*update {
				t.Errorf("OPERATIONS.md table %q is stale; regenerate with go test ./internal/service -run TestOperationsMetricTables -update\ngot:\n%s\nwant:\n%s", tb.name, doc[i:i+j], want)
			}
			doc = doc[:i] + want + doc[i+j:]
		}
	}
	if *update && doc != string(raw) {
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
