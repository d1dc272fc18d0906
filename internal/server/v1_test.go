package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/internal/admission"
)

// envelope mirrors the documented /v1 error shape.
type envelope struct {
	Error *struct {
		Code    string         `json:"code"`
		Message string         `json:"message"`
		Details map[string]any `json:"details"`
	} `json:"error"`
}

func doRaw(t *testing.T, method, url string, body string) (*http.Response, []byte) {
	t.Helper()
	var req *http.Request
	var err error
	if method == http.MethodGet {
		req, err = http.NewRequest(method, url, nil)
	} else {
		req, err = http.NewRequest(method, url, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// Every /v1 failure mode must answer with the uniform envelope
// {"error": {"code", "message"}} and the documented status.
func TestV1ErrorEnvelopeTable(t *testing.T) {
	_, ts, _, _ := testServer(t) // diversification-only: no profiles
	hugeBatch, _ := json.Marshal(map[string]any{
		"requests": make([]map[string]any, MaxBatchSize+1),
	})

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"suggest GET missing query", "GET", "/v1/suggest?user=u", "", 400, "missing_query"},
		{"suggest GET garbage k", "GET", "/v1/suggest?q=sun&k=5x", "", 400, "bad_k"},
		{"suggest GET zero k", "GET", "/v1/suggest?q=sun&k=0", "", 400, "bad_k"},
		{"suggest GET negative k", "GET", "/v1/suggest?q=sun&k=-3", "", 400, "bad_k"},
		{"suggest POST bad JSON", "POST", "/v1/suggest", "{", 400, "bad_json"},
		{"suggest POST missing query", "POST", "/v1/suggest", `{"user":"u"}`, 400, "missing_query"},
		{"suggest POST negative k", "POST", "/v1/suggest", `{"query":"sun","k":-1}`, 400, "bad_k"},
		{"suggest POST bad at", "POST", "/v1/suggest", `{"query":"sun","at":"yesterday"}`, 400, "bad_timestamp"},
		{"suggest POST bad context time", "POST", "/v1/suggest",
			`{"query":"sun","context":[{"query":"x","at":"noonish"}]}`, 400, "bad_timestamp"},
		{"refresh bad JSON", "POST", "/v1/refresh", "{", 400, "bad_json"},
		{"refresh unknown mode", "POST", "/v1/refresh", `{"mode":"yolo"}`, 400, "bad_mode"},
		{"refresh unsupported mode", "POST", "/v1/refresh", `{"mode":"foldin"}`, 409, "conflict"},
		{"learn bad JSON", "POST", "/v1/learn", "{", 400, "bad_json"},
		{"learn missing user", "POST", "/v1/learn", `{}`, 400, "missing_user"},
		{"learn unknown user", "POST", "/v1/learn", `{"user":"nobody"}`, 404, "not_found"},
		{"feedback bad JSON", "POST", "/v1/feedback", "{", 400, "bad_json"},
		{"feedback missing fields", "POST", "/v1/feedback", `{"rating":0.2}`, 400, "missing_field"},
		{"feedback off-scale rating", "POST", "/v1/feedback",
			`{"user":"u","suggestion":"s","rating":0.5}`, 400, "bad_rating"},
		{"log bad JSON", "POST", "/v1/log", "{", 400, "bad_json"},
		{"log missing query", "POST", "/v1/log", `{"user":"u"}`, 400, "missing_field"},
		{"log bad at", "POST", "/v1/log", `{"user":"u","query":"q","at":"eventually"}`, 400, "bad_timestamp"},
		{"batch bad JSON", "POST", "/v1/suggest/batch", "{", 400, "bad_json"},
		{"batch empty", "POST", "/v1/suggest/batch", `{"requests":[]}`, 400, "bad_batch"},
		{"batch too large", "POST", "/v1/suggest/batch", string(hugeBatch), 413, "batch_too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := doRaw(t, tc.method, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, raw)
			}
			var env envelope
			if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil {
				t.Fatalf("body is not the error envelope: %s", raw)
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", env.Error.Code, tc.wantCode)
			}
			if env.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}
}

// The /v1 endpoints answer, record what they served and carry no
// deprecation marker.
func TestV1AndLegacyAliases(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	q := url.QueryEscape(pickKnownQuery(t, w))

	var v1 SuggestResponse
	if code := getJSON(t, ts.URL+"/v1/suggest?user=u&q="+q+"&k=5", &v1); code != 200 {
		t.Fatalf("/v1/suggest: status %d", code)
	}
	if len(v1.Suggestions) == 0 {
		t.Error("/v1/suggest returned no suggestions")
	}
	resp2, _ := doRaw(t, "GET", ts.URL+"/v1/suggest?user=u&q="+q+"&k=5", "")
	if resp2.Header.Get("Deprecation") != "" {
		t.Error("/v1 endpoint carries a Deprecation header")
	}
	// Both requests above recorded entries.
	if n := srv.Recorded().Len(); n < 2 {
		t.Errorf("recorded %d entries", n)
	}

	for _, path := range []string{"/stats", "/refresh", "/log", "/feedback", "/learn"} {
		method := "POST"
		if path == "/stats" {
			method = "GET"
		}
		resp, _ := doRaw(t, method, ts.URL+"/v1"+path, "")
		if resp.StatusCode == http.StatusNotFound && path != "/learn" {
			t.Errorf("/v1%s not mounted", path)
		}
	}
}

// TestMountedSurface pins what Handler mounts: every documented method
// and path answers, every retired door is a 404 that admission control
// and the availability objective do not see.
func TestMountedSurface(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	cfg := admission.DefaultConfig()
	cfg.IP = admission.RateConfig{Rate: 1000, Burst: 1000}
	srv.SetAdmission(cfg)
	srv.EnableSLO(testSLOConfig(newSLOClock(), ""))
	defer srv.Close()
	q := pickKnownQuery(t, w)

	availabilityEvents := func() uint64 {
		for _, st := range srv.EvaluateSLO() {
			if st.Name == "availability" {
				return st.Good + st.Bad
			}
		}
		t.Fatal("no availability objective")
		return 0
	}

	for _, door := range []struct{ method, path, body string }{
		{"GET", "/api/suggest?q=" + url.QueryEscape(q), ""},
		{"POST", "/api/log", `{"user":"u","query":"x"}`},
		{"GET", "/api/stats", ""},
		{"GET", "/debug/vars", ""},
		{"POST", "/debug/stats/reset", ""},
	} {
		resp, _ := doRaw(t, door.method, ts.URL+door.path, door.body)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("retired %s %s = %d, want 404", door.method, door.path, resp.StatusCode)
		}
	}
	if n := srv.Admission().IPs.Keys(); n != 0 {
		t.Errorf("retired paths opened %d per-IP buckets, want 0", n)
	}
	if n := availabilityEvents(); n != 0 {
		t.Errorf("retired paths recorded %d availability events, want 0", n)
	}

	suggest, _ := json.Marshal(SuggestRequest{Query: q})
	for _, rt := range []struct{ method, path, body string }{
		{"GET", "/v1/suggest?q=" + url.QueryEscape(q), ""},
		{"POST", "/v1/suggest", string(suggest)},
		{"POST", "/v1/suggest/batch", `{"requests":[` + string(suggest) + `]}`},
		{"POST", "/v1/feedback", `{}`},
		{"POST", "/v1/log", `{}`},
		{"POST", "/v1/learn", `{}`},
		{"POST", "/v1/refresh", `{}`},
		{"GET", "/v1/stats", ""},
		{"GET", "/v1/strategies", ""},
		{"GET", "/v1/snapshot", ""},
		{"POST", "/v1/snapshot", "not an image"},
		{"GET", "/v1/health", ""},
		{"GET", "/healthz", ""},
		{"GET", "/metrics", ""},
		{"GET", "/debug/traces", ""},
		{"GET", "/debug/exemplars", ""},
		{"GET", "/debug/flightrecorder", ""},
	} {
		resp, _ := doRaw(t, rt.method, ts.URL+rt.path, rt.body)
		if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want a mounted route", rt.method, rt.path, resp.StatusCode)
		}
	}
	if n := srv.Admission().IPs.Keys(); n != 1 {
		t.Errorf("guarded routes opened %d per-IP buckets, want 1", n)
	}
	if availabilityEvents() == 0 {
		t.Error("guarded routes recorded no availability event")
	}
}

// GET and POST flow through ONE decoder: the same malformed input is
// rejected identically on both transports, and the same valid input
// produces the same suggestion list.
func TestSuggestTransportsCannotDrift(t *testing.T) {
	_, ts, w, _ := testServer(t)
	q := pickKnownQuery(t, w)

	var viaGet, viaPost SuggestResponse
	if code := getJSON(t, ts.URL+"/v1/suggest?user=u9&q="+url.QueryEscape(q)+"&k=7", &viaGet); code != 200 {
		t.Fatalf("GET: %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/suggest", SuggestRequest{User: "u9", Query: q, K: 7}, &viaPost); code != 200 {
		t.Fatalf("POST: %d", code)
	}
	if fmt.Sprint(viaGet.Suggestions) != fmt.Sprint(viaPost.Suggestions) {
		t.Errorf("transports diverged:\nGET  %v\nPOST %v", viaGet.Suggestions, viaPost.Suggestions)
	}

	// k clamping is shared: k over the cap serves the cap, not an
	// error, on both transports.
	if code := getJSON(t, ts.URL+"/v1/suggest?q="+url.QueryEscape(q)+"&k=10000", nil); code != 200 {
		t.Errorf("GET k=10000: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/suggest", SuggestRequest{Query: q, K: 10000}, nil); code != 200 {
		t.Errorf("POST k=10000: status %d", code)
	}
}

func TestBatchSuggest(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	srv.Engine().EnableCache(256, 0)
	q := pickKnownQuery(t, w)

	// Three copies of the same request, one distinct valid request, one
	// invalid item: the batch answers all five positionally; the bad
	// item fails alone.
	batch := BatchSuggestRequest{Requests: []SuggestRequest{
		{User: "u1", Query: q, K: 5},
		{User: "u2", Query: q, K: 5},
		{User: "u3", Query: q, K: 5},
		{User: "u1", Query: q, K: 3},
		{User: "u1", Query: "", K: 5},
	}}
	var out BatchSuggestResponse
	if code := postJSON(t, ts.URL+"/v1/suggest/batch", batch, &out); code != 200 {
		t.Fatalf("batch: status %d", code)
	}
	if len(out.Results) != 5 {
		t.Fatalf("%d results for 5 requests", len(out.Results))
	}
	for i := 0; i < 4; i++ {
		if out.Results[i].Status != 200 || out.Results[i].Response == nil {
			t.Fatalf("item %d: %+v", i, out.Results[i])
		}
		if len(out.Results[i].Response.Suggestions) == 0 {
			t.Fatalf("item %d: empty suggestions", i)
		}
	}
	// Identical items share one diversified list.
	for i := 1; i < 3; i++ {
		if fmt.Sprint(out.Results[i].Response.Diversified) != fmt.Sprint(out.Results[0].Response.Diversified) {
			t.Errorf("duplicate items %d and 0 diverged", i)
		}
	}
	if out.Results[3].Response.Suggestions != nil && len(out.Results[3].Response.Suggestions) > 3 {
		t.Errorf("k=3 item returned %d suggestions", len(out.Results[3].Response.Suggestions))
	}
	bad := out.Results[4]
	if bad.Status != 400 || bad.Error == nil || bad.Error.Code != "missing_query" {
		t.Fatalf("invalid item = %+v", bad)
	}

	// Solve sharing: all four valid items carry the same solve signature
	// (same query, no context), so the whole payload ran ONE blocked
	// multi-RHS solve — the three identical items coalesced onto the
	// k=5 leader's lane, and k=3 rode along as a second right-hand side.
	if solves := srv.Engine().SolveCount(); solves != 1 {
		t.Errorf("batch ran %d CG solves, want 1", solves)
	}
	st := srv.Engine().Cache().Stats()
	if st.Entries != 2 {
		t.Errorf("cache entries = %d for 2 unique valid keys (stats %+v)", st.Entries, st)
	}
	if st.Misses != 4 {
		t.Errorf("cache misses = %d for 4 valid lookups on a cold cache (stats %+v)", st.Misses, st)
	}
	// All four successes were recorded for future training.
	if n := srv.Recorded().Len(); n != 4 {
		t.Errorf("recorded %d entries, want 4", n)
	}
}
