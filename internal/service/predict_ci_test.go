package service

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestPredictCIResponse: a replicated-strategy request returns per-metric
// ci_low/ci_high brackets, the replicate count, per-group round info, and
// feeds the zatel_ci_halfwidth histogram once per build: the repeats are
// hits and observe nothing.
func TestPredictCIResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const body = `{"scene":"SPRNG","config":"mobile","width":40,"height":40,"spp":1,
		"dist":"rankedset","percent":0.4,"replicates":4}`

	resp, pr, raw := postPredict(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if pr.Replicates < 2 {
		t.Errorf("replicates = %d, want the requested 4 (min over groups)", pr.Replicates)
	}
	if len(pr.CILow) != len(pr.Predicted) || len(pr.CIHigh) != len(pr.Predicted) {
		t.Fatalf("ci_low/ci_high cover %d/%d metrics, predicted has %d",
			len(pr.CILow), len(pr.CIHigh), len(pr.Predicted))
	}
	for m, v := range pr.Predicted {
		lo, hi := pr.CILow[m], pr.CIHigh[m]
		if lo > v || v > hi {
			t.Errorf("%s: interval [%v,%v] does not bracket prediction %v", m, lo, hi, v)
		}
	}
	for gi, g := range pr.Groups {
		if g.Error == "" && (g.Replicates < 2 || g.Rounds < 1) {
			t.Errorf("group %d: replicates=%d rounds=%d", gi, g.Replicates, g.Rounds)
		}
	}

	for i := 0; i < 2; i++ {
		if resp, pr, raw := postPredict(t, ts.URL, body); resp.StatusCode != http.StatusOK || pr.Cache != "hit" {
			t.Fatalf("repeat %d: status %d cache %q\n%s", i, resp.StatusCode, pr.Cache, raw)
		}
	}

	// The CI histogram observed the one build.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metricsText := string(mraw)
	if !strings.Contains(metricsText, `zatel_ci_halfwidth_count{kind="relative"} 1`) {
		t.Errorf("zatel_ci_halfwidth did not record the replicated prediction:\n%s",
			grepLines(metricsText, "zatel_ci_halfwidth"))
	}
}

// TestPredictPointEstimateOmitsCI: point-estimate strategies keep the old
// response shape — no intervals, no replicate fields.
func TestPredictPointEstimateOmitsCI(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const body = `{"scene":"SPRNG","config":"mobile","width":40,"height":40,"spp":1,"dist":"exptmp"}`
	resp, pr, raw := postPredict(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if pr.CILow != nil || pr.CIHigh != nil || pr.Replicates != 0 {
		t.Errorf("point-estimate response carries CI fields: %s", raw)
	}
}

func TestPredictCIValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []string{
		// target_ci without a replicated strategy
		`{"scene":"SPRNG","config":"mobile","width":40,"height":40,"spp":1,"target_ci":0.05}`,
		// negative target
		`{"scene":"SPRNG","config":"mobile","width":40,"height":40,"spp":1,"dist":"stratified","target_ci":-1}`,
		// single replicate
		`{"scene":"SPRNG","config":"mobile","width":40,"height":40,"spp":1,"dist":"stratified","replicates":1}`,
		// untabulated confidence
		`{"scene":"SPRNG","config":"mobile","width":40,"height":40,"spp":1,"dist":"stratified","confidence":0.5}`,
		// unknown strategy name
		`{"scene":"SPRNG","config":"mobile","width":40,"height":40,"spp":1,"dist":"gaussian"}`,
		// regression is a second extrapolation scheme
		`{"scene":"SPRNG","config":"mobile","width":40,"height":40,"spp":1,"dist":"stratified","regression":true}`,
		// a fixed fraction above the cap
		`{"scene":"SPRNG","config":"mobile","width":40,"height":40,"spp":1,"dist":"rankedset","percent":0.3,"max_percent":0.2}`,
	}
	for _, body := range cases {
		resp, _, raw := postPredict(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status %d for %s: %s", resp.StatusCode, body, raw)
		}
	}
}

// grepLines returns the lines of text containing sub, for error messages.
func grepLines(text, sub string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
