package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
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

// TestRefreshBuildOverrideDelta: a refresh with "build": "delta" takes
// the incremental path, reports it in the response, and leaves the new
// vocabulary servable.
func TestRefreshBuildOverrideDelta(t *testing.T) {
	_, ts, w, _ := testServer(t)
	q := pickKnownQuery(t, w)
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/log", LogRequest{User: "deltauser", Query: "incremental topic phrase"}, nil)
	}
	postJSON(t, ts.URL+"/v1/log", LogRequest{User: "deltauser", Query: q}, nil)

	var out map[string]any
	if code := postJSON(t, ts.URL+"/v1/refresh", RefreshRequest{Mode: "graphs", Build: "delta"}, &out); code != 200 {
		t.Fatalf("delta refresh: status %d (%v)", code, out)
	}
	if out["build"] != "delta" {
		t.Errorf("build = %v, want delta", out["build"])
	}
	if out["deltaEntries"].(float64) != 4 {
		t.Errorf("deltaEntries = %v, want 4", out["deltaEntries"])
	}
	var sugg SuggestResponse
	if code := getJSON(t, ts.URL+"/v1/suggest?user=deltauser&q=incremental+topic+phrase&k=5", &sugg); code != 200 {
		t.Fatalf("suggest after delta refresh: status %d", code)
	}

	// An explicit full build is also honored and reported.
	postJSON(t, ts.URL+"/v1/log", LogRequest{User: "deltauser", Query: q}, nil)
	var out2 map[string]any
	if code := postJSON(t, ts.URL+"/v1/refresh", RefreshRequest{Mode: "graphs", Build: "full"}, &out2); code != 200 {
		t.Fatalf("full refresh: status %d (%v)", code, out2)
	}
	if out2["build"] != "full" {
		t.Errorf("build = %v, want full", out2["build"])
	}
	if out2["deltaEntries"].(float64) != 0 {
		t.Errorf("full build deltaEntries = %v, want 0", out2["deltaEntries"])
	}
}

// TestRefreshBuildOverrideInvalid: an unknown build strategy is a 400
// and must not consume the recorded entries.
func TestRefreshBuildOverrideInvalid(t *testing.T) {
	srv, ts, _, _ := testServer(t)
	postJSON(t, ts.URL+"/v1/log", LogRequest{User: "u", Query: "pending entry"}, nil)
	var out map[string]any
	if code := postJSON(t, ts.URL+"/v1/refresh", RefreshRequest{Mode: "graphs", Build: "partial"}, &out); code != 400 {
		t.Fatalf("bad build: status %d", code)
	}
	// The entry is still pending: a valid refresh ingests it.
	var out2 map[string]any
	if code := postJSON(t, ts.URL+"/v1/refresh", RefreshRequest{Mode: "graphs", Build: "delta"}, &out2); code != 200 {
		t.Fatalf("refresh after bad build: status %d", code)
	}
	if out2["ingested"].(float64) != 1 {
		t.Errorf("ingested = %v, want 1 (bad build consumed the entry?)", out2["ingested"])
	}
	_ = srv
}

// TestStatsReportLastBuild: /v1/stats exposes the snapshot build stats
// (mode, delta size) plus the pending/clamp counters, and /metrics
// carries the mode-labeled build-duration histogram.
func TestStatsReportLastBuild(t *testing.T) {
	_, ts, w, _ := testServer(t)
	q := pickKnownQuery(t, w)
	postJSON(t, ts.URL+"/v1/log", LogRequest{User: "s", Query: q}, nil)
	postJSON(t, ts.URL+"/v1/refresh", RefreshRequest{Mode: "graphs", Build: "delta"}, nil)

	var stats map[string]any
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	eng := stats["engine"].(map[string]any)
	if eng["pendingEntries"].(float64) != 0 {
		t.Errorf("pendingEntries = %v", eng["pendingEntries"])
	}
	if eng["dirtyClamps"].(float64) != 0 {
		t.Errorf("dirtyClamps = %v", eng["dirtyClamps"])
	}
	lb := eng["lastBuild"].(map[string]any)
	if lb["mode"] != "delta" {
		t.Errorf("lastBuild.mode = %v, want delta", lb["mode"])
	}
	if lb["deltaEntries"].(float64) != 1 {
		t.Errorf("lastBuild.deltaEntries = %v, want 1", lb["deltaEntries"])
	}
	if lb["affectedUsers"].(float64) != 1 {
		t.Errorf("lastBuild.affectedUsers = %v, want 1", lb["affectedUsers"])
	}
	if lb["entries"].(float64) != float64(w.Log.Len()+1) {
		t.Errorf("lastBuild.entries = %v, want %d", lb["entries"], w.Log.Len()+1)
	}

	body := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`pqsda_snapshot_build_duration_seconds_count{mode="delta"} 1`,
		"pqsda_snapshot_delta_entries_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
