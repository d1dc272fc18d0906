package server

import (
	"net/http"
	"strings"
	"testing"
)

// POST /v1/refresh with an empty body must behave as the documented
// default (mode "graphs"), not 400 on json.Decode's EOF.
func TestRefreshEmptyBodyDefaultsToGraphs(t *testing.T) {
	_, ts, _, _ := testServer(t)
	resp, err := http.Post(ts.URL+"/v1/refresh", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("empty-body refresh: status %d, want 200", resp.StatusCode)
	}
}

// A refresh mode the engine cannot satisfy must be rejected BEFORE the
// recorded entries are consumed: the next valid refresh still ingests
// them, and the serving engine is untouched by the failed attempt.
func TestRefreshRejectedModeDoesNotConsumeEntries(t *testing.T) {
	srv, ts, _, _ := testServer(t) // diversification-only fixture
	before := srv.Engine()
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/log", LogRequest{User: "u", Query: "pending entry probe"}, nil)
	}
	if code := postJSON(t, ts.URL+"/v1/refresh", RefreshRequest{Mode: "foldin"}, nil); code != 409 {
		t.Fatalf("foldin without profiles: status %d, want 409", code)
	}
	if srv.Engine() != before {
		t.Fatal("rejected refresh swapped the engine")
	}
	if got := before.PendingEntries(); got != 0 {
		t.Fatalf("rejected refresh ingested %d entries into the serving engine", got)
	}
	// The entries are still pending for a valid refresh.
	var out map[string]any
	if code := postJSON(t, ts.URL+"/v1/refresh", RefreshRequest{Mode: "graphs"}, &out); code != 200 {
		t.Fatalf("graphs refresh after rejected foldin: status %d", code)
	}
	if out["ingested"].(float64) != 3 {
		t.Errorf("ingested = %v after rejected foldin, want 3 (entries were consumed by the 409)", out["ingested"])
	}
}

// GET /v1/suggest must reject malformed and non-positive k instead of
// Sscanf-accepting trailing garbage ("5x" → 5).
func TestSuggestGetRejectsBadK(t *testing.T) {
	_, ts, w, _ := testServer(t)
	q := pickKnownQuery(t, w)
	for _, k := range []string{"5x", "-3", "0", "2.5", "1e3", ""} {
		u := ts.URL + "/v1/suggest?user=u&q=" + q + "&k=" + k
		want := 400
		if k == "" { // absent k falls back to the default of 10
			want = 200
		}
		if code := getJSON(t, u, nil); code != want {
			t.Errorf("k=%q: status %d, want %d", k, code, want)
		}
	}
}

// Tabs and newlines in user-controlled strings must not corrupt the
// one-event-per-line TSV sink.
func TestSinkEscapesControlCharacters(t *testing.T) {
	_, ts, _, sink := testServer(t)
	evil := "tab\there\nand a newline"
	if code := postJSON(t, ts.URL+"/v1/log", LogRequest{User: "u\t1", Query: evil}, nil); code != 200 {
		t.Fatalf("log: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/feedback", Feedback{
		User: "u1", Query: evil, Suggestion: "sugg\nwith newline", Rating: 0.8,
	}, nil); code != 200 {
		t.Fatalf("feedback: status %d", code)
	}
	out := sink.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink has %d lines for 2 events:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "entry\t") || !strings.HasPrefix(lines[1], "feedback\t") {
		t.Fatalf("sink lines mangled:\n%s", out)
	}
	// The entry line must have exactly its 5 fields; a raw tab in the
	// query would add more.
	if got := len(strings.Split(lines[0], "\t")); got != 5 {
		t.Errorf("entry line has %d tab-separated fields, want 5: %q", got, lines[0])
	}
	if !strings.Contains(lines[0], `tab\there\nand a newline`) {
		t.Errorf("query not escaped in sink: %q", lines[0])
	}
}

// escapeTSV round-trip sanity on the escaping itself.
func TestEscapeTSV(t *testing.T) {
	cases := map[string]string{
		"plain":        "plain",
		"a\tb":         `a\tb`,
		"a\nb":         `a\nb`,
		"a\r\nb":       `a\r\nb`,
		`back\slash`:   `back\\slash`,
		"\t\n\r\\mix—": `\t\n\r\\mix—`,
	}
	for in, want := range cases {
		if got := escapeTSV(in); got != want {
			t.Errorf("escapeTSV(%q) = %q, want %q", in, got, want)
		}
	}
}
