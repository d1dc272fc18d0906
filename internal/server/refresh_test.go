package server

import (
	"testing"
)

func TestRefreshEndpointGraphs(t *testing.T) {
	_, ts, w, _ := testServer(t)
	q := pickKnownQuery(t, w)
	// Feed the server some brand-new traffic.
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/log", LogRequest{User: "fresh", Query: "brand new topic phrase"}, nil)
	}
	postJSON(t, ts.URL+"/v1/log", LogRequest{User: "fresh", Query: q}, nil)
	var out map[string]any
	if code := postJSON(t, ts.URL+"/v1/refresh", RefreshRequest{Mode: "graphs"}, &out); code != 200 {
		t.Fatalf("refresh: status %d (%v)", code, out)
	}
	if out["ingested"].(float64) != 4 {
		t.Errorf("ingested = %v, want 4", out["ingested"])
	}
	// The new query is now servable.
	var sugg SuggestResponse
	if code := getJSON(t, ts.URL+"/v1/suggest?user=fresh&q=brand+new+topic+phrase&k=5", &sugg); code != 200 {
		t.Fatalf("suggest after refresh: status %d", code)
	}
	// Second refresh has nothing new (the suggest above recorded one
	// more entry).
	var out2 map[string]any
	postJSON(t, ts.URL+"/v1/refresh", RefreshRequest{Mode: "graphs"}, &out2)
	if out2["ingested"].(float64) != 1 {
		t.Errorf("second refresh ingested = %v, want 1", out2["ingested"])
	}
}

func TestRefreshEndpointBadMode(t *testing.T) {
	_, ts, _, _ := testServer(t)
	if code := postJSON(t, ts.URL+"/v1/refresh", RefreshRequest{Mode: "everything"}, nil); code != 400 {
		t.Errorf("bad mode: status %d", code)
	}
}

func TestRefreshEndpointFoldInWithoutProfiles(t *testing.T) {
	_, ts, _, _ := testServer(t) // diversification-only fixture
	if code := postJSON(t, ts.URL+"/v1/refresh", RefreshRequest{Mode: "foldin"}, nil); code != 409 {
		t.Errorf("foldin without profiles: status %d, want 409", code)
	}
}

func TestRefreshEndpointFoldIn(t *testing.T) {
	_, ts, w := personalizedServer(t)
	q := pickKnownQuery(t, w)
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/v1/log", LogRequest{User: "newbie", Query: q}, nil)
	}
	var out map[string]any
	if code := postJSON(t, ts.URL+"/v1/refresh", RefreshRequest{Mode: "foldin"}, &out); code != 200 {
		t.Fatalf("foldin refresh: status %d (%v)", code, out)
	}
}
