package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/slo"
	"repro/internal/synth"
)

// sloClock is the fake clock injected through SLOConfig.Burn.Now so the
// burn-rate lifecycle runs in microseconds of wall time.
type sloClock struct {
	mu sync.Mutex
	t  time.Time
}

func newSLOClock() *sloClock {
	return &sloClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *sloClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *sloClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testSLOConfig compresses the burn windows (fast {60s, 5s, ×10}, slow
// {300s, 30s, ×2}, 1s buckets) and disables the background ticker so
// tests drive EvaluateSLO directly against the fake clock.
func testSLOConfig(clock *sloClock, dumpDir string) SLOConfig {
	cfg := DefaultSLOConfig()
	cfg.EvalInterval = 0
	cfg.ExemplarMinAge = -1 // rotate every observation
	cfg.DumpDir = dumpDir
	cfg.Burn = slo.Config{
		Fast:       slo.BurnWindow{Long: 60 * time.Second, Short: 5 * time.Second, Factor: 10},
		Slow:       slo.BurnWindow{Long: 300 * time.Second, Short: 30 * time.Second, Factor: 2},
		Resolution: time.Second,
		Now:        clock.Now,
	}
	return cfg
}

func getHealth(t *testing.T, url string) (int, string, map[string]any) {
	t.Helper()
	var out struct {
		Status     string                    `json:"status"`
		Components map[string]map[string]any `json:"components"`
	}
	resp, err := http.Get(url + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	comps := make(map[string]any, len(out.Components))
	for k, v := range out.Components {
		comps[k] = v
	}
	return resp.StatusCode, out.Status, comps
}

// TestSLOLifecycle is the acceptance path end to end: healthy baseline →
// latency regression → fast burn → /v1/health flips unhealthy (503) and
// the advisory goes to shed → the flight recorder auto-dumps the
// lead-up, whose trace IDs resolve through /debug/exemplars → recovery
// clears everything.
func TestSLOLifecycle(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	srv.SetAdmission(admission.DefaultConfig())
	clock := newSLOClock()
	dumpDir := t.TempDir()
	srv.EnableSLO(testSLOConfig(clock, dumpDir))
	defer srv.Close()
	query := pickKnownQuery(t, w)

	// Phase 1: healthy baseline. Real requests feed the latency,
	// availability and fidelity objectives through the serving path and
	// leave wide events (with trace IDs) in the flight recorder.
	for i := 0; i < 20; i++ {
		code := getJSON(t, fmt.Sprintf("%s/v1/suggest?user=u0001&q=%s&k=5", ts.URL, query), nil)
		if code != 200 {
			t.Fatalf("baseline suggest %d: status %d", i, code)
		}
		clock.Advance(time.Second)
	}
	srv.EvaluateSLO()
	if st := srv.SLOState(); st != slo.Healthy {
		t.Fatalf("baseline SLO state = %v, want Healthy", st)
	}
	if code, status, _ := getHealth(t, ts.URL); code != 200 || status != "ready" {
		t.Fatalf("baseline health = %d %q, want 200 ready", code, status)
	}
	if adv := srv.Admission().Advisory(); adv != admission.AdvisoryNone {
		t.Fatalf("baseline advisory = %v, want none", adv)
	}
	fr := srv.FlightRecorder()
	if fr == nil || fr.Recorded() < 20 {
		t.Fatalf("flight recorder missing baseline events: %v", fr.Recorded())
	}

	// Phase 2: latency regression. Every observation blows the 250ms
	// end-to-end budget for 10 fake seconds — enough to push both fast
	// windows far over their ×10 factor.
	rt := srv.sloState.Load()
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			rt.latencyTotal.ObserveLatency(2 * time.Second)
		}
		clock.Advance(time.Second)
	}
	srv.EvaluateSLO()
	if st := srv.SLOState(); st != slo.FastBurn {
		t.Fatalf("post-regression SLO state = %v, want FastBurn", st)
	}
	code, status, comps := getHealth(t, ts.URL)
	if code != http.StatusServiceUnavailable || status != "unhealthy" {
		t.Fatalf("post-regression health = %d %q, want 503 unhealthy", code, status)
	}
	sloComp, _ := comps["slo"].(map[string]any)
	if sloComp["status"] != "unhealthy" {
		t.Fatalf("slo component = %v, want unhealthy", sloComp)
	}
	if adv := srv.Admission().Advisory(); adv != admission.AdvisoryShed {
		t.Fatalf("post-regression advisory = %v, want shed", adv)
	}

	// The fast-burn transition must have auto-dumped the flight recorder,
	// and the dump must hold the baseline requests' wide events with
	// trace IDs that still resolve through /debug/exemplars.
	dumps, err := filepath.Glob(filepath.Join(dumpDir, "flightrecorder-*.jsonl"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("no flight-recorder dump in %s (err %v)", dumpDir, err)
	}
	f, err := os.Open(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	traceID, lines := "", 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines++
		var ev struct {
			TraceID string `json:"traceId"`
			Outcome string `json:"outcome"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("dump line %d not JSON: %v", lines, err)
		}
		if ev.Outcome == "ok" && ev.TraceID != "" {
			traceID = ev.TraceID
		}
	}
	if lines < 20 {
		t.Fatalf("dump holds %d events, want ≥ 20", lines)
	}
	if traceID == "" {
		t.Fatal("dump holds no ok event with a trace ID")
	}
	var resolved struct {
		Trace       map[string]any `json:"trace"`
		Attribution map[string]any `json:"attribution"`
	}
	if code := getJSON(t, ts.URL+"/debug/exemplars?trace="+traceID, &resolved); code != 200 {
		t.Fatalf("/debug/exemplars?trace=%s: status %d", traceID, code)
	}
	if resolved.Attribution == nil || resolved.Trace == nil {
		t.Fatalf("trace %s resolved without attribution: %+v", traceID, resolved)
	}

	// /debug/exemplars without a trace filter lists pinned exemplars
	// whose trace IDs come from real requests.
	var exOut struct {
		Exemplars []struct {
			Metric  string `json:"metric"`
			TraceID string `json:"traceId"`
		} `json:"exemplars"`
	}
	if code := getJSON(t, ts.URL+"/debug/exemplars", &exOut); code != 200 {
		t.Fatalf("/debug/exemplars: status %d", code)
	}
	if len(exOut.Exemplars) == 0 {
		t.Fatal("no exemplars pinned after 20 suggestions")
	}

	// /debug/flightrecorder streams the live ring as JSONL.
	resp, err := http.Get(ts.URL + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	body := bufio.NewScanner(resp.Body)
	frLines := 0
	for body.Scan() {
		frLines++
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("/debug/flightrecorder Content-Type = %q", ct)
	}
	if frLines < 20 {
		t.Fatalf("/debug/flightrecorder returned %d lines, want ≥ 20", frLines)
	}

	// Phase 3: recovery. Good traffic flushes the short windows; the
	// alert clears and health returns to ready.
	for i := 0; i < 120; i++ {
		for j := 0; j < 5; j++ {
			rt.latencyTotal.ObserveLatency(time.Millisecond)
		}
		clock.Advance(time.Second)
	}
	srv.EvaluateSLO()
	if st := srv.SLOState(); st != slo.Healthy {
		t.Fatalf("post-recovery SLO state = %v, want Healthy", st)
	}
	if code, status, _ := getHealth(t, ts.URL); code != 200 || status != "ready" {
		t.Fatalf("post-recovery health = %d %q, want 200 ready", code, status)
	}
	if adv := srv.Admission().Advisory(); adv != admission.AdvisoryNone {
		t.Fatalf("post-recovery advisory = %v, want none", adv)
	}
	if fr.Dumps() != 1 {
		t.Fatalf("Dumps() = %d, want exactly 1 (one transition)", fr.Dumps())
	}
}

// TestDumpOncePerEvaluation: when several objectives cross into fast
// burn at the same evaluation (one slow dependency breaches every
// stage budget at once), the ring is dumped once, not once per
// objective — the contents are identical.
func TestDumpOncePerEvaluation(t *testing.T) {
	srv, _, _, _ := testServer(t)
	clock := newSLOClock()
	srv.EnableSLO(testSLOConfig(clock, t.TempDir()))
	defer srv.Close()
	rt := srv.sloState.Load()
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			rt.latencyTotal.ObserveLatency(2 * time.Second)
			for _, tr := range rt.stageLatency {
				tr.ObserveLatency(2 * time.Second)
			}
		}
		clock.Advance(time.Second)
	}
	srv.EvaluateSLO()
	burning := 0
	for _, st := range srv.SLOStatuses() {
		if st.State == slo.FastBurn.String() {
			burning++
		}
	}
	if burning < 2 {
		t.Fatalf("want ≥2 objectives in fast burn, got %d", burning)
	}
	if got := rt.flight.Dumps(); got != 1 {
		t.Fatalf("Dumps() = %d after %d simultaneous transitions, want 1", got, burning)
	}
}

func TestHealthWithoutSLO(t *testing.T) {
	_, ts, _, _ := testServer(t)
	code, status, comps := getHealth(t, ts.URL)
	if code != 200 || status != "ready" {
		t.Fatalf("health without SLO = %d %q, want 200 ready", code, status)
	}
	sloComp, _ := comps["slo"].(map[string]any)
	detail, _ := sloComp["detail"].(map[string]any)
	if detail["enabled"] != false {
		t.Fatalf("slo component should report enabled=false: %v", sloComp)
	}
}

func TestHealthDegradedOnStaleSnapshot(t *testing.T) {
	srv, ts, _, _ := testServer(t)
	clock := newSLOClock()
	cfg := testSLOConfig(clock, "")
	cfg.SnapshotMaxAge = time.Nanosecond // everything is stale
	srv.EnableSLO(cfg)
	defer srv.Close()
	code, status, comps := getHealth(t, ts.URL)
	if code != 200 || status != "degraded" {
		t.Fatalf("health with stale snapshot = %d %q, want 200 degraded", code, status)
	}
	engComp, _ := comps["engine"].(map[string]any)
	if engComp["status"] != "degraded" {
		t.Fatalf("engine component = %v, want degraded", engComp)
	}
}

func TestHealthNotGuardedByAdmission(t *testing.T) {
	// A health probe must answer even while every guarded request sheds.
	srv, ts, _, _ := testServer(t)
	srv.SetAdmission(admission.Config{IP: admission.RateConfig{Rate: 0.0001, Burst: 1}})
	// Exhaust the per-IP bucket on a guarded path.
	getJSON(t, ts.URL+"/v1/stats", nil)
	if code := getJSON(t, ts.URL+"/v1/stats", nil); code != 429 {
		t.Fatalf("guarded path should shed: got %d", code)
	}
	if code, _, _ := getHealth(t, ts.URL); code != 200 {
		t.Fatalf("/v1/health shed by admission control: %d", code)
	}
}

func TestDebugEndpointsDisabledWithoutSLO(t *testing.T) {
	_, ts, _, _ := testServer(t)
	if code := getJSON(t, ts.URL+"/debug/exemplars", nil); code != 404 {
		t.Fatalf("/debug/exemplars without SLO = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/debug/flightrecorder", nil); code != 404 {
		t.Fatalf("/debug/flightrecorder without SLO = %d, want 404", code)
	}
}

// TestStatsMetricsParity pins the contract that /v1/stats and /metrics
// are two views over the same counters: cache hit/miss/coalesce and the
// admission shed counters must agree exactly at quiescence.
func TestStatsMetricsParity(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	srv.Engine().EnableCache(64, 0)
	srv.SetAdmission(admission.Config{IP: admission.RateConfig{Rate: 0.0001, Burst: 8}})
	query := pickKnownQuery(t, w)

	// Two identical suggestions: one miss, one hit. Then burn the rest of
	// the IP budget so some requests shed.
	for i := 0; i < 12; i++ {
		getJSON(t, fmt.Sprintf("%s/v1/suggest?user=u0001&q=%s&k=5", ts.URL, query), nil)
	}

	var stats struct {
		Cache struct {
			Hits      float64 `json:"hits"`
			Misses    float64 `json:"misses"`
			Coalesced float64 `json:"coalesced"`
		} `json:"cache"`
		Admission struct {
			ShedIP float64 `json:"shedRateLimitedIP"`
		} `json:"admission"`
	}
	// /v1/stats itself is guarded and the bucket is empty — read the
	// payload directly instead of burning more budget.
	raw, err := json.Marshal(srv.statsPayload())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache.Hits == 0 || stats.Cache.Misses == 0 {
		t.Fatalf("expected cache traffic, got hits=%v misses=%v", stats.Cache.Hits, stats.Cache.Misses)
	}
	if stats.Admission.ShedIP == 0 {
		t.Fatal("expected rate-limited sheds")
	}

	metrics := scrapeMetrics(t, ts.URL+"/metrics")
	pairs := []struct {
		metric string
		want   float64
	}{
		{`pqsda_cache_hits_total`, stats.Cache.Hits},
		{`pqsda_cache_misses_total`, stats.Cache.Misses},
		{`pqsda_cache_coalesced_total`, stats.Cache.Coalesced},
		{`pqsda_shed_total{reason="rate_limited_ip"}`, stats.Admission.ShedIP},
	}
	for _, p := range pairs {
		got, ok := metrics[p.metric]
		if !ok {
			t.Errorf("metric %s absent from /metrics", p.metric)
			continue
		}
		if got != p.want {
			t.Errorf("%s = %v on /metrics but %v on /v1/stats", p.metric, got, p.want)
		}
	}
}

// scrapeMetrics parses a classic exposition into sample line → value.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err == nil {
			out[line[:i]] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// metricsText returns the /metrics body in the format the Accept
// header selects ("" = classic Prometheus text).
func metricsText(t *testing.T, base, accept string) string {
	t.Helper()
	req, _ := http.NewRequest("GET", base+"/metrics", nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestMetricsExpositionConformance runs both exposition formats of a
// fully loaded server through the strict linter.
func TestMetricsExpositionConformance(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	srv.Engine().EnableCache(64, 0)
	srv.SetAdmission(admission.DefaultConfig())
	srv.EnableSLO(testSLOConfig(newSLOClock(), ""))
	defer srv.Close()
	query := pickKnownQuery(t, w)
	for i := 0; i < 5; i++ {
		getJSON(t, fmt.Sprintf("%s/v1/suggest?user=u0001&q=%s&k=5", ts.URL, query), nil)
	}

	classic := metricsText(t, ts.URL, "")
	if err := obs.LintText(classic); err != nil {
		t.Fatalf("classic /metrics fails lint: %v", err)
	}
	om := metricsText(t, ts.URL, "application/openmetrics-text")
	if err := obs.LintOpenMetrics(om); err != nil {
		t.Fatalf("OpenMetrics /metrics fails lint: %v", err)
	}
	// Exemplars from real requests must appear in the OM exposition.
	if !strings.Contains(om, "trace_id=") {
		t.Fatal("OpenMetrics exposition carries no exemplars after real traffic")
	}
	for _, name := range []string{"pqsda_slo_state", "pqsda_flightrecorder_events_total", "pqsda_flightrecorder_dumps_total"} {
		if !strings.Contains(classic, name) {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
}

// TestEnableSLOTwiceRegistersOnce: replacing the SLO runtime must not
// re-register its metric families — each keeps one TYPE header and one
// sample in both exposition formats, and the sample reads the runtime
// that is installed now.
func TestEnableSLOTwiceRegistersOnce(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	srv.EnableSLO(testSLOConfig(newSLOClock(), ""))
	srv.EnableSLO(testSLOConfig(newSLOClock(), ""))
	defer srv.Close()
	getJSON(t, fmt.Sprintf("%s/v1/suggest?user=u0001&q=%s&k=5", ts.URL, pickKnownQuery(t, w)), nil)

	classic := metricsText(t, ts.URL, "")
	if err := obs.LintText(classic); err != nil {
		t.Fatalf("classic /metrics fails lint: %v", err)
	}
	om := metricsText(t, ts.URL, "application/openmetrics-text")
	if err := obs.LintOpenMetrics(om); err != nil {
		t.Fatalf("OpenMetrics /metrics fails lint: %v", err)
	}
	for _, name := range []string{"pqsda_slo_state", "pqsda_flightrecorder_events_total", "pqsda_flightrecorder_dumps_total"} {
		for format, body := range map[string]string{"classic": classic, "openmetrics": om} {
			if n := strings.Count("\n"+body, "\n"+name+" "); n != 1 {
				t.Errorf("%s: %d samples of %s, want 1", format, n, name)
			}
		}
	}
	if !strings.Contains(classic, "\npqsda_flightrecorder_events_total 1\n") {
		t.Error("flight-recorder counter does not read the live runtime's one event")
	}
}

// TestMetricsManifest pins the registered metric family names against
// the checked-in manifest (metrics.txt at the repo root) — the
// metrics-lint CI step. Renaming or dropping a series is a deliberate
// act: regenerate the manifest in the same change with
//
//	UPDATE_METRICS_MANIFEST=1 go test ./internal/server -run TestMetricsManifest
func TestMetricsManifest(t *testing.T) {
	srv, _, _, _ := testServer(t)
	srv.Engine().EnableCache(64, 0)
	srv.EnableSLO(testSLOConfig(newSLOClock(), ""))
	defer srv.Close()

	if os.Getenv("UPDATE_METRICS_MANIFEST") != "" {
		var b strings.Builder
		b.WriteString("# Registered metric family names, one per line, in registration order.\n")
		b.WriteString("# Checked by TestMetricsManifest (make metrics-lint); regenerate with\n")
		b.WriteString("#   UPDATE_METRICS_MANIFEST=1 go test ./internal/server -run TestMetricsManifest\n")
		for _, name := range srv.tel.registry.Names() {
			b.WriteString(name)
			b.WriteByte('\n')
		}
		if err := os.WriteFile("../../metrics.txt", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skip("metrics.txt regenerated")
	}

	raw, err := os.ReadFile("../../metrics.txt")
	if err != nil {
		t.Fatalf("metrics manifest missing: %v", err)
	}
	manifest := map[string]bool{}
	var ordered []string
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		manifest[line] = true
		ordered = append(ordered, line)
	}
	registered := srv.tel.registry.Names()
	regSet := map[string]bool{}
	for _, name := range registered {
		regSet[name] = true
		if !manifest[name] {
			t.Errorf("metric %q registered but missing from metrics.txt — add it deliberately", name)
		}
	}
	for _, name := range ordered {
		if !regSet[name] {
			t.Errorf("metric %q in metrics.txt but not registered — remove it deliberately", name)
		}
	}
}

// TestFlashCrowdSLOReport drives the PR6 flash crowd (96 clients,
// cold nocache suggestions) against a server with live SLOs on
// compressed real-time windows and prints the per-objective burn-rate
// verdict table plus the flight-recorder outcome mix — the measurement
// harness behind the EXPERIMENTS.md SLO table, not a regression test.
// Runs when PQSDA_SLOREPORT=1.
func TestFlashCrowdSLOReport(t *testing.T) {
	if os.Getenv("PQSDA_SLOREPORT") != "1" {
		t.Skip("set PQSDA_SLOREPORT=1 to run the flash-crowd SLO measurement")
	}
	const clients, perEach = 96, 10
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
	}}
	world := synth.Generate(synth.Config{Seed: 7, NumFacets: 8, NumUsers: 48, SessionsPerUser: 40})

	// Two conditions: admission control off (the crowd lands directly on
	// the engine) and on (gate 4/4, 10ms max wait). The contrast is the
	// point — the gate trades a slice of availability (shed events are
	// still "good" for the latency objectives, which only count served
	// requests) for latency budgets that survive the crowd.
	run := func(admit bool) {
		engine, err := core.NewEngine(world.Log, core.Config{
			Compact:             bipartite.CompactConfig{Budget: 200},
			SkipPersonalization: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(engine, io.Discard)
		if admit {
			srv.SetAdmission(admission.Config{
				Suggest: admission.GateConfig{Limit: 4, Queue: 4, MaxWait: 10 * time.Millisecond},
			})
		}
		cfg := DefaultSLOConfig()
		cfg.LatencyP99 = 50 * time.Millisecond // a loaded box will breach this
		cfg.EvalInterval = 0                   // evaluated manually at the end
		cfg.Burn = slo.Config{                 // compressed real-time windows: a verdict within one run
			Fast:       slo.BurnWindow{Long: 10 * time.Second, Short: 2 * time.Second, Factor: 10},
			Slow:       slo.BurnWindow{Long: 60 * time.Second, Short: 10 * time.Second, Factor: 2},
			Resolution: time.Second,
		}
		srv.EnableSLO(cfg)
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		q := pickKnownQuery(t, world)
		u := ts.URL + "/v1/suggest?nocache=1&q=" + url.QueryEscape(q)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perEach; i++ {
					if resp, err := client.Get(u); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}()
		}
		wg.Wait()
		srv.EvaluateSLO()

		t.Logf("admission=%v", admit)
		t.Logf("%-18s %-10s %8s %8s %8s %8s %10s", "objective", "state", "fastL", "fastS", "slowL", "slowS", "budget")
		for _, st := range srv.SLOStatuses() {
			t.Logf("%-18s %-10s %8.1f %8.1f %8.1f %8.1f %9.0f%%",
				st.Name, st.State, st.FastLong, st.FastShort, st.SlowLong, st.SlowShort, 100*st.BudgetRemaining)
		}
		outcomes := map[string]int{}
		for _, ev := range srv.FlightRecorder().Events() {
			outcomes[ev.Outcome.String()]++
		}
		advisory := "none"
		if ctrl := srv.Admission(); ctrl != nil {
			advisory = ctrl.Advisory().String()
		}
		t.Logf("flight recorder: recorded=%d outcomes=%v advisory=%s",
			srv.FlightRecorder().Recorded(), outcomes, advisory)
		code, status, _ := getHealth(t, ts.URL)
		t.Logf("/v1/health: %d %s", code, status)
	}
	run(false)
	run(true)
}

// TestSLOHammer races real suggestions, scrapes, stats resets and
// burn-rate evaluations — the -race coverage for the whole SLO surface.
func TestSLOHammer(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	srv.SetAdmission(admission.DefaultConfig())
	clock := newSLOClock()
	srv.EnableSLO(testSLOConfig(clock, ""))
	defer srv.Close()
	query := pickKnownQuery(t, w)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	worker := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}()
	}
	worker(func() { // real traffic: exemplar rotation + flight events
		http.Get(fmt.Sprintf("%s/v1/suggest?user=u0001&q=%s&k=5", ts.URL, query))
	})
	worker(func() { // OpenMetrics scrapes render live exemplars
		req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
		req.Header.Set("Accept", "application/openmetrics-text")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	})
	worker(func() { // burn evaluation against a moving clock
		clock.Advance(100 * time.Millisecond)
		srv.EvaluateSLO()
	})
	worker(func() { // flight-recorder reads race the writers
		if resp, err := http.Get(ts.URL + "/debug/flightrecorder"); err == nil {
			resp.Body.Close()
		}
	})
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}
