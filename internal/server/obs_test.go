package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/synth"
)

// TestTracePropagation is the acceptance check of the tracing layer: a
// debug=trace request against a personalized engine must return the
// span tree covering every pipeline stage, with the solver attributes
// recorded from deep inside the CG solve.
func TestTracePropagation(t *testing.T) {
	_, ts, w := personalizedServer(t)
	q := pickKnownQuery(t, w)

	var out struct {
		RequestID string             `json:"requestId"`
		Trace     *obs.TraceSnapshot `json:"trace"`
	}
	url := fmt.Sprintf("%s/v1/suggest?q=%s&user=u0001&debug=trace", ts.URL, q)
	if code := getJSON(t, url, &out); code != 200 {
		t.Fatalf("suggest: status %d", code)
	}
	if out.RequestID == "" {
		t.Error("response has no requestId")
	}
	if out.Trace == nil {
		t.Fatal("debug=trace returned no trace")
	}
	if out.Trace.ID != out.RequestID {
		t.Errorf("trace id %q != response requestId %q", out.Trace.ID, out.RequestID)
	}
	spans := map[string]obs.SpanSnapshot{}
	for _, sp := range out.Trace.Spans {
		spans[sp.Name] = sp
	}
	for _, stage := range []string{"suggest", "compact", "solve", "hitting", "personalize"} {
		if _, ok := spans[stage]; !ok {
			t.Errorf("trace missing %q span (got %v)", stage, spanNames(out.Trace))
		}
	}
	if it, ok := spans["solve"].Attrs["cgIterations"]; !ok || asFloat(it) < 1 {
		t.Errorf("solve span cgIterations = %v, want ≥ 1", it)
	}
	if res, ok := spans["solve"].Attrs["residual"]; !ok || asFloat(res) < 0 {
		t.Errorf("solve span residual = %v", res)
	}
	if r, ok := spans["hitting"].Attrs["rounds"]; !ok || asFloat(r) < 1 {
		t.Errorf("hitting span rounds = %v, want ≥ 1", r)
	}

	// Without debug=trace the span tree stays out of the payload.
	var plain map[string]any
	getJSON(t, fmt.Sprintf("%s/v1/suggest?q=%s", ts.URL, q), &plain)
	if _, ok := plain["trace"]; ok {
		t.Error("trace present without debug=trace")
	}
	// Unknown debug modes are rejected, not ignored.
	var envelope map[string]map[string]any
	if code := getJSON(t, fmt.Sprintf("%s/v1/suggest?q=%s&debug=verbose", ts.URL, q), &envelope); code != 400 {
		t.Errorf("debug=verbose: status %d, want 400", code)
	} else if envelope["error"]["code"] != "bad_debug" {
		t.Errorf("debug=verbose error code = %v", envelope["error"]["code"])
	}
}

func decodeInto(t *testing.T, resp *http.Response, into any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

func spanNames(tr *obs.TraceSnapshot) []string {
	names := make([]string, len(tr.Spans))
	for i, sp := range tr.Spans {
		names[i] = sp.Name
	}
	return names
}

func asFloat(v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	default:
		return -1
	}
}

// TestMetricsEndpoint asserts /metrics serves the per-stage latency
// family for all five stages plus the pipeline-depth histograms fed
// from inside the solver and the greedy loop.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, w, _ := testServer(t)
	q := pickKnownQuery(t, w)
	if code := getJSON(t, ts.URL+"/v1/suggest?q="+q, nil); code != 200 {
		t.Fatalf("suggest: status %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)

	for _, stage := range []string{"compact", "solve", "hitting", "personalize", "total"} {
		if want := fmt.Sprintf(`pqsda_stage_duration_seconds_bucket{stage=%q,le="+Inf"}`, stage); !strings.Contains(body, want) {
			t.Errorf("/metrics missing stage series %q", want)
		}
	}
	// The diversification-only fixture ran compact/solve/hitting/total;
	// their counts must be non-zero, and the depth histograms must have
	// received the in-pipeline observations through the context sink.
	for _, family := range []string{
		"pqsda_stage_duration_seconds", "pqsda_http_request_duration_seconds",
		obs.MetricCGIterations, obs.MetricCGResidual,
		obs.MetricHittingRounds, obs.MetricHittingWalkSteps,
	} {
		if !strings.Contains(body, family+"_count") {
			t.Errorf("/metrics missing family %q", family)
		}
	}
	for _, nonzero := range []string{
		obs.MetricCGIterations + "_count 1",
		obs.MetricHittingRounds + "_count 1",
		"pqsda_suggest_requests_total 1",
	} {
		if !strings.Contains(body, nonzero) {
			t.Errorf("/metrics: expected %q in output", nonzero)
		}
	}
	if !strings.Contains(body, "# TYPE pqsda_stage_duration_seconds histogram") {
		t.Error("/metrics missing TYPE header for the stage family")
	}
	if !strings.Contains(body, "pqsda_engine_generation 1") {
		t.Error("/metrics missing engine generation gauge")
	}
}

func TestRequestIDPropagation(t *testing.T) {
	_, ts, w, _ := testServer(t)
	q := pickKnownQuery(t, w)

	// Server-assigned: header and body must agree.
	resp, err := http.Get(ts.URL + "/v1/suggest?q=" + q)
	if err != nil {
		t.Fatal(err)
	}
	var out SuggestResponse
	decodeInto(t, resp, &out)
	hdr := resp.Header.Get("X-Request-Id")
	if hdr == "" {
		t.Fatal("no X-Request-Id on response")
	}
	if out.RequestID != hdr {
		t.Errorf("body requestId %q != header %q", out.RequestID, hdr)
	}

	// Client-supplied: accepted and echoed verbatim.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/suggest?q="+q, nil)
	req.Header.Set("X-Request-Id", "caller-7")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, resp2, &out)
	if resp2.Header.Get("X-Request-Id") != "caller-7" || out.RequestID != "caller-7" {
		t.Errorf("client-supplied id not echoed: header %q, body %q",
			resp2.Header.Get("X-Request-Id"), out.RequestID)
	}

	// Error envelopes carry the id in details.
	req3, _ := http.NewRequest("GET", ts.URL+"/v1/suggest?q="+q+"&k=zero", nil)
	req3.Header.Set("X-Request-Id", "caller-8")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	var envelope errorEnvelope
	decodeInto(t, resp3, &envelope)
	if resp3.StatusCode != 400 {
		t.Fatalf("bad k: status %d", resp3.StatusCode)
	}
	if got := envelope.Error.Details["requestId"]; got != "caller-8" {
		t.Errorf("error envelope requestId = %v, want caller-8", got)
	}
}

func TestDebugTracesRing(t *testing.T) {
	_, ts, w, _ := testServer(t)
	q := pickKnownQuery(t, w)
	for i := 0; i < 3; i++ {
		if code := getJSON(t, ts.URL+"/v1/suggest?q="+q, nil); code != 200 {
			t.Fatalf("suggest %d: status %d", i, code)
		}
	}
	var out struct {
		Traces []obs.TraceSnapshot `json:"traces"`
	}
	if code := getJSON(t, ts.URL+"/debug/traces", &out); code != 200 {
		t.Fatalf("/debug/traces: status %d", code)
	}
	if len(out.Traces) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(out.Traces))
	}
	for i, tr := range out.Traces {
		if tr.ID == "" || len(tr.Spans) == 0 {
			t.Errorf("trace %d: id=%q spans=%d", i, tr.ID, len(tr.Spans))
		}
	}
}

func TestStatsPercentiles(t *testing.T) {
	_, ts, w, _ := testServer(t)
	q := pickKnownQuery(t, w)
	for i := 0; i < 4; i++ {
		getJSON(t, ts.URL+"/v1/suggest?q="+q, nil)
	}

	var stats map[string]any
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("/v1/stats: status %d", code)
	}
	total := stats["stages"].(map[string]any)["total"].(map[string]any)
	if total["count"].(float64) != 4 {
		t.Fatalf("stages.total.count = %v, want 4", total["count"])
	}
	for _, key := range []string{"p50Ms", "p90Ms", "p99Ms", "meanMs", "maxMs"} {
		v, ok := total[key].(float64)
		if !ok || v <= 0 {
			t.Errorf("stages.total.%s = %v, want > 0", key, total[key])
		}
	}
	solver := stats["solver"].(map[string]any)
	cg := solver["cgIterations"].(map[string]any)
	if cg["count"].(float64) < 1 || cg["p50"].(float64) < 1 {
		t.Errorf("solver.cgIterations = %v", cg)
	}
	rt := stats["runtime"].(map[string]any)
	if rt["goroutines"].(float64) < 1 || rt["uptimeSeconds"].(float64) < 0 {
		t.Errorf("runtime section = %v", rt)
	}
	if _, ok := stats["http"].(map[string]any); !ok {
		t.Error("stats missing http section")
	}
}

// TestServerIsCollectable guards against process-global registrations:
// once a served, SLO-enabled server is closed and dropped, nothing may
// keep it — and with it the histograms, flight recorder, recorded log
// and engine — reachable. The sink is the probe: only the Server points
// at it, and unlike the Server (which its own metric closures point back
// at) it sits on no cycle, so its finalizer runs iff the Server is gone.
func TestServerIsCollectable(t *testing.T) {
	collected := make(chan struct{})
	func() {
		w := synth.Generate(synth.Config{Seed: 83, NumFacets: 3, NumUsers: 6, SessionsPerUser: 10})
		engine, err := core.NewEngine(w.Log, core.Config{
			Compact:             bipartite.CompactConfig{Budget: 30},
			SkipPersonalization: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sink := &bytes.Buffer{}
		runtime.SetFinalizer(sink, func(*bytes.Buffer) { close(collected) })
		srv := New(engine, sink)
		srv.EnableSLO(DefaultSLOConfig())
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/suggest?q="+url.QueryEscape(pickKnownQuery(t, w)), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("suggest: status %d", rec.Code)
		}
		srv.Close()
	}()
	// Close stops the evaluation loop asynchronously, so allow a few
	// cycles for its goroutine to exit and the finalizer to run.
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("closed server still reachable after 50 GC cycles")
}

func TestPProfMounting(t *testing.T) {
	srv, ts, _, _ := testServer(t) // pprof off by default
	if code := getJSON(t, ts.URL+"/debug/pprof/", nil); code != 404 {
		t.Errorf("pprof without EnablePProf: status %d, want 404", code)
	}
	srv.EnablePProf()
	ts2 := httptest.NewServer(srv.Handler())
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof index: status %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}
