package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/synth"
)

func testServer(t *testing.T) (*Server, *httptest.Server, *synth.World, *bytes.Buffer) {
	t.Helper()
	w := synth.Generate(synth.Config{Seed: 81, NumFacets: 4, NumUsers: 8, SessionsPerUser: 12})
	engine, err := core.NewEngine(w.Log, core.Config{
		Compact:             bipartite.CompactConfig{Budget: 40},
		SkipPersonalization: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := &bytes.Buffer{}
	srv := New(engine, sink)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, w, sink
}

func pickKnownQuery(t *testing.T, w *synth.World) string {
	t.Helper()
	best, n := "", 0
	for q, f := range w.Log.QueryFrequency() {
		if f > n {
			best, n = q, f
		}
	}
	return best
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body any, into any) int {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	_, ts, _, _ := testServer(t)
	var out map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out["status"] != "ok" {
		t.Errorf("health = %v", out)
	}
}

func TestSuggestGet(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	q := pickKnownQuery(t, w)
	var out SuggestResponse
	code := getJSON(t, ts.URL+"/v1/suggest?user=u0000&q="+strings.ReplaceAll(q, " ", "+")+"&k=5", &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out.Suggestions) == 0 {
		t.Fatal("no suggestions")
	}
	if len(out.Suggestions) > 5 {
		t.Fatalf("k not honored: %d", len(out.Suggestions))
	}
	// The middleware records the query.
	if rec := srv.Recorded(); rec.Len() != 1 || rec.Entries[0].Query != q {
		t.Errorf("recorded = %v", rec.Entries)
	}
}

func TestSuggestPostWithContext(t *testing.T) {
	_, ts, w, _ := testServer(t)
	q := pickKnownQuery(t, w)
	now := time.Now().UTC()
	var out SuggestResponse
	code := postJSON(t, ts.URL+"/v1/suggest", SuggestRequest{
		User: "u0001", Query: q, K: 6,
		At: now.Format(time.RFC3339),
		Context: []ContextItem{
			{Query: q, At: now.Add(-time.Minute).Format(time.RFC3339)},
		},
	}, &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.CompactSize == 0 {
		t.Error("no compact diagnostics")
	}
}

func TestSuggestErrors(t *testing.T) {
	_, ts, _, _ := testServer(t)
	if code := getJSON(t, ts.URL+"/v1/suggest?user=u&q=", nil); code != 400 {
		t.Errorf("empty query: status %d, want 400", code)
	}
	// Unknown query → empty result, not an error.
	var out SuggestResponse
	if code := getJSON(t, ts.URL+"/v1/suggest?user=u&q=zzz+qqq+www", &out); code != 200 {
		t.Errorf("unknown query: status %d, want 200", code)
	}
	if len(out.Suggestions) != 0 {
		t.Errorf("unknown query suggestions = %v", out.Suggestions)
	}
	// Bad JSON body.
	resp, err := http.Post(ts.URL+"/v1/suggest", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("bad JSON: status %d", resp.StatusCode)
	}
}

func TestFeedbackFlow(t *testing.T) {
	srv, ts, w, sink := testServer(t)
	q := pickKnownQuery(t, w)
	for i, rating := range []float64{1, 0.6, 0.2} {
		code := postJSON(t, ts.URL+"/v1/feedback", Feedback{
			User: fmt.Sprintf("expert%d", i), Query: q, Suggestion: "some suggestion", Rating: rating,
		}, nil)
		if code != 200 {
			t.Fatalf("feedback %d: status %d", i, code)
		}
	}
	if got := len(srv.FeedbackLog()); got != 3 {
		t.Fatalf("feedback count = %d", got)
	}
	if hpr := srv.MeanHPR(); hpr < 0.59 || hpr > 0.61 {
		t.Errorf("MeanHPR = %v, want 0.6", hpr)
	}
	if !strings.Contains(sink.String(), "feedback\texpert0") {
		t.Error("sink did not receive feedback lines")
	}
	// Invalid ratings rejected.
	if code := postJSON(t, ts.URL+"/v1/feedback", Feedback{
		User: "e", Query: q, Suggestion: "s", Rating: 0.5,
	}, nil); code != 400 {
		t.Errorf("off-scale rating: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/feedback", Feedback{Rating: 0.2}, nil); code != 400 {
		t.Errorf("missing fields: status %d, want 400", code)
	}
}

func TestLogEndpoint(t *testing.T) {
	srv, ts, _, sink := testServer(t)
	code := postJSON(t, ts.URL+"/v1/log", LogRequest{
		User: "u7", Query: "manual event", ClickedURL: "example.com/page",
	}, nil)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	rec := srv.Recorded()
	if rec.Len() != 1 || rec.Entries[0].ClickedURL != "example.com/page" {
		t.Errorf("recorded = %+v", rec.Entries)
	}
	if !strings.Contains(sink.String(), "entry\tu7\tmanual event") {
		t.Error("sink missing entry line")
	}
	if code := postJSON(t, ts.URL+"/v1/log", LogRequest{User: "u"}, nil); code != 400 {
		t.Errorf("missing query: status %d", code)
	}
}

func TestMeanHPREmpty(t *testing.T) {
	srv, _, _, _ := testServer(t)
	if got := srv.MeanHPR(); got != 0 {
		t.Errorf("MeanHPR with no feedback = %v", got)
	}
}
