package server

import (
	"encoding/json"
	"net/http"
	"net/url"
	"testing"
	"time"

	"repro/internal/admission"
)

// --- Strategy request field ------------------------------------------

// The strategy field must round-trip on both verbs: accepted on the
// request, resolved to its canonical name, and echoed on the response.
func TestV1StrategyAcceptAndEcho(t *testing.T) {
	_, ts, w, _ := testServer(t)
	q := pickKnownQuery(t, w)

	var def SuggestResponse
	if code := getJSON(t, ts.URL+"/v1/suggest?q="+url.QueryEscape(q), &def); code != 200 {
		t.Fatalf("default GET: %d", code)
	}
	if def.Strategy != "hitting" {
		t.Fatalf("default strategy echo %q, want %q", def.Strategy, "hitting")
	}

	var mmr SuggestResponse
	if code := getJSON(t, ts.URL+"/v1/suggest?q="+url.QueryEscape(q)+"&strategy=mmr", &mmr); code != 200 {
		t.Fatalf("GET strategy=mmr: %d", code)
	}
	if mmr.Strategy != "mmr" {
		t.Fatalf("GET strategy echo %q, want %q", mmr.Strategy, "mmr")
	}

	var rel SuggestResponse
	code := postJSON(t, ts.URL+"/v1/suggest",
		map[string]any{"query": q, "strategy": "relevance"}, &rel)
	if code != 200 {
		t.Fatalf("POST strategy=relevance: %d", code)
	}
	if rel.Strategy != "relevance" {
		t.Fatalf("POST strategy echo %q, want %q", rel.Strategy, "relevance")
	}
}

// An unregistered strategy is a stable 400 envelope, and the details
// list the known names so the client can fix the request.
func TestV1UnknownStrategy(t *testing.T) {
	_, ts, w, _ := testServer(t)
	q := pickKnownQuery(t, w)
	resp, body := doRaw(t, http.MethodGet,
		ts.URL+"/v1/suggest?q="+url.QueryEscape(q)+"&strategy=bogus", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, body)
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("bad envelope: %s", body)
	}
	if env.Error.Code != "unknown_strategy" {
		t.Fatalf("code %q, want unknown_strategy", env.Error.Code)
	}
	if env.Error.Details["strategy"] != "bogus" {
		t.Fatalf("details.strategy = %v, want bogus", env.Error.Details["strategy"])
	}
	known, ok := env.Error.Details["known"].([]any)
	if !ok || len(known) < 4 {
		t.Fatalf("details.known = %v, want the registered strategy names", env.Error.Details["known"])
	}
}

// --- Strategy discovery ----------------------------------------------

func TestV1Strategies(t *testing.T) {
	srv, ts, _, _ := testServer(t)
	var out struct {
		Default    string `json:"default"`
		Brownout   string `json:"brownout"`
		Strategies []struct {
			Name   string         `json:"name"`
			Params map[string]any `json:"params"`
		} `json:"strategies"`
	}
	if code := getJSON(t, ts.URL+"/v1/strategies", &out); code != 200 {
		t.Fatalf("GET /v1/strategies: %d", code)
	}
	if out.Default != "hitting" {
		t.Fatalf("default = %q, want hitting", out.Default)
	}
	if out.Brownout != "" {
		t.Fatalf("brownout = %q, want disabled by default", out.Brownout)
	}
	names := map[string]bool{}
	for _, st := range out.Strategies {
		names[st.Name] = true
	}
	for _, want := range []string{"hitting", "mmr", "pfar", "relevance"} {
		if !names[want] {
			t.Errorf("strategy %q missing from discovery payload %v", want, names)
		}
	}

	if err := srv.SetBrownoutStrategy("relevance"); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/v1/strategies", &out); code != 200 {
		t.Fatal("second GET failed")
	}
	if out.Brownout != "relevance" {
		t.Fatalf("brownout = %q after SetBrownoutStrategy", out.Brownout)
	}
}

// --- Brownout fallback -----------------------------------------------

// With the breaker open and no cached list, a designated brownout
// strategy answers the miss (200 degraded, strategy echoed) instead of
// the 503 shed; without a designation the 503 behavior is unchanged.
func TestBrownoutFallback(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	srv.Engine().EnableCache(64, 0)
	clk := newChaosClock()
	srv.SetAdmission(admission.Config{
		Breaker: admission.BreakerConfig{
			FailureRatio: 0.5,
			Window:       10 * time.Second,
			MinSamples:   4,
			Cooldown:     5 * time.Second,
			Probes:       2,
			Now:          clk.Now,
		},
	})
	if err := srv.SetBrownoutStrategy("nope"); err == nil {
		t.Fatal("unknown brownout strategy accepted")
	}

	q := pickKnownQuery(t, w)
	// Trip the breaker with deadline failures (nocache so nothing masks
	// them), exactly like the chaos suite does.
	breaker := srv.Admission().Breaker
	srv.SetRequestTimeout(time.Nanosecond)
	for i := 0; i < 10 && breaker.State() != admission.Open; i++ {
		getRaw(t, ts.URL+"/v1/suggest?q="+url.QueryEscape(q)+"&nocache=1")
	}
	srv.SetRequestTimeout(0)
	if st := breaker.State(); st != admission.Open {
		t.Fatalf("breaker state = %v, want Open", st)
	}

	// No brownout designated: uncached query sheds 503 (the PR6 contract).
	resp, _ := getRaw(t, ts.URL+"/v1/suggest?q="+url.QueryEscape(q))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("without brownout: status %d, want 503", resp.StatusCode)
	}

	// Brownout designated: the same miss is answered by the cheap
	// strategy, marked degraded, with the fallback name echoed.
	if err := srv.SetBrownoutStrategy("relevance"); err != nil {
		t.Fatal(err)
	}
	var out SuggestResponse
	if code := getJSON(t, ts.URL+"/v1/suggest?q="+url.QueryEscape(q), &out); code != http.StatusOK {
		t.Fatalf("brownout request: %d, want 200", code)
	}
	if !out.Degraded {
		t.Fatal("brownout response not marked degraded")
	}
	if out.Strategy != "relevance" {
		t.Fatalf("brownout strategy echo %q, want relevance", out.Strategy)
	}
	if len(out.Diversified) == 0 {
		t.Fatal("brownout served an empty list for a known query")
	}

	// The stats surface must account for the brownout serve.
	var stats map[string]any
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != 200 {
		t.Fatal("stats failed")
	}
	adm, _ := stats["admission"].(map[string]any)
	if n, _ := adm["brownoutServed"].(float64); n < 1 {
		t.Fatalf("admission.brownoutServed = %v, want >= 1", adm["brownoutServed"])
	}
	strat, _ := stats["strategies"].(map[string]any)
	if strat == nil {
		t.Fatal("stats missing strategies section")
	}
	if strat["brownout"] != "relevance" {
		t.Fatalf("stats strategies.brownout = %v", strat["brownout"])
	}
	by, _ := strat["byStrategy"].(map[string]any)
	if by == nil || by["relevance"] == nil {
		t.Fatalf("stats strategies.byStrategy missing relevance: %v", by)
	}
}
