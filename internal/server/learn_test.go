package server

import (
	"net/http/httptest"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/topicmodel"
)

// personalized server fixture (the default fixture skips profiles).
func personalizedServer(t *testing.T) (*Server, *httptest.Server, *synth.World) {
	t.Helper()
	w := synth.Generate(synth.Config{Seed: 82, NumFacets: 4, NumUsers: 8, SessionsPerUser: 15})
	engine, err := core.NewEngine(w.Log, core.Config{
		Compact: bipartite.CompactConfig{Budget: 40},
		UPM:     topicmodel.UPMConfig{K: 4, Iterations: 20, Seed: 1, HyperRounds: 1, HyperIters: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(engine, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, w
}

func TestLearnEndpoint(t *testing.T) {
	srv, ts, w := personalizedServer(t)
	q := pickKnownQuery(t, w)

	// No history yet → 404.
	if code := postJSON(t, ts.URL+"/v1/learn", LearnRequest{User: "visitor"}, nil); code != 404 {
		t.Fatalf("learn without history: status %d, want 404", code)
	}
	// Record a few searches through the log endpoint.
	for i := 0; i < 4; i++ {
		if code := postJSON(t, ts.URL+"/v1/log", LogRequest{User: "visitor", Query: q}, nil); code != 200 {
			t.Fatalf("log: status %d", code)
		}
	}
	var out map[string]any
	if code := postJSON(t, ts.URL+"/v1/learn", LearnRequest{User: "visitor"}, &out); code != 200 {
		t.Fatalf("learn: status %d (%v)", code, out)
	}
	if srv.Engine().Profiles().Theta("visitor") == nil {
		t.Fatal("visitor has no profile after /v1/learn")
	}
	// Missing user → 400.
	if code := postJSON(t, ts.URL+"/v1/learn", LearnRequest{}, nil); code != 400 {
		t.Errorf("empty user: status %d", code)
	}
}

func TestLearnEndpointWithoutProfiles(t *testing.T) {
	_, ts, w, _ := testServer(t) // diversification-only engine
	q := pickKnownQuery(t, w)
	postJSON(t, ts.URL+"/v1/log", LogRequest{User: "u", Query: q}, nil)
	if code := postJSON(t, ts.URL+"/v1/learn", LearnRequest{User: "u"}, nil); code != 409 {
		t.Errorf("learn on profile-less engine: status %d, want 409", code)
	}
}
