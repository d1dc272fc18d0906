package pqsda

// A "live deployment" integration test: train on history, serve over
// the HTTP middleware, replay future traffic through the API, fold new
// users in, refresh, and verify the system keeps improving its view of
// the world. This exercises the full production loop end to end:
//
//	loggen → clean → engine → serve → record → learn → refresh → suggest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/querylog"
	"repro/internal/server"
	"repro/internal/topicmodel"
)

func TestLiveDeploymentLoop(t *testing.T) {
	world := SyntheticLog(SyntheticConfig{
		Seed: 99, NumUsers: 14, SessionsPerUser: 16, NumFacets: 5,
	})

	// Split the world's users: most are "history", the last two are
	// future visitors the deployed system has never seen.
	users := world.UserIDs()
	visitors := users[len(users)-2:]
	visitorSet := map[string]bool{visitors[0]: true, visitors[1]: true}
	history := &Log{}
	var future []Entry
	for _, e := range world.Log.Entries {
		if visitorSet[e.UserID] {
			future = append(future, e)
		} else {
			history.Append(e)
		}
	}

	engine, err := core.NewEngine(history, core.Config{
		UPM: topicmodel.UPMConfig{K: 5, Iterations: 25, Seed: 9, HyperRounds: 1, HyperIters: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(engine, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path string, body any, into any) int {
		raw, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
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

	// Phase 1: visitors search; the middleware records everything.
	for _, e := range future {
		if code := post("/v1/log", server.LogRequest{
			User: e.UserID, Query: e.Query, ClickedURL: e.ClickedURL,
			At: e.Time.Format(time.RFC3339),
		}, nil); code != 200 {
			t.Fatalf("log: status %d", code)
		}
	}

	// Phase 2: fold the visitors into the profiles via the API.
	for _, v := range visitors {
		if code := post("/v1/learn", server.LearnRequest{User: v}, nil); code != 200 {
			t.Fatalf("learn %s: status %d", v, code)
		}
		// /v1/learn hot-swaps a cloned engine in; read the serving one.
		if srv.Engine().Profiles().Theta(v) == nil {
			t.Fatalf("visitor %s unprofiled after /v1/learn", v)
		}
	}

	// Phase 3: refresh the graphs so the visitors' queries are servable.
	var refreshed map[string]any
	if code := post("/v1/refresh", server.RefreshRequest{Mode: "graphs"}, &refreshed); code != 200 {
		t.Fatalf("refresh: status %d (%v)", code, refreshed)
	}
	if int(refreshed["ingested"].(float64)) != len(future) {
		t.Fatalf("refresh ingested %v entries, want %d", refreshed["ingested"], len(future))
	}

	// Phase 4: a visitor asks for suggestions on one of their own
	// queries; the system serves personalized results.
	visitorQuery := ""
	for _, e := range future {
		if e.UserID == visitors[0] && len(querylog.Tokenize(e.Query)) > 0 {
			visitorQuery = e.Query
			break
		}
	}
	var out server.SuggestResponse
	if code := post("/v1/suggest", server.SuggestRequest{
		User: visitors[0], Query: visitorQuery, K: 8,
	}, &out); code != 200 {
		t.Fatalf("suggest: status %d", code)
	}
	if len(out.Suggestions) == 0 {
		t.Fatalf("no suggestions for visitor query %q after full loop", visitorQuery)
	}

	// Phase 5: feedback closes the loop.
	for i, s := range out.Suggestions {
		rating := 0.2
		if i == 0 {
			rating = 1.0
		}
		if code := post("/v1/feedback", server.Feedback{
			User: visitors[0], Query: visitorQuery, Suggestion: s, Rating: rating,
		}, nil); code != 200 {
			t.Fatalf("feedback: status %d", code)
		}
	}
	if srv.MeanHPR() <= 0 {
		t.Fatal("no HPR collected")
	}
	if got := len(srv.FeedbackLog()); got != len(out.Suggestions) {
		t.Fatalf("feedback count %d, want %d", got, len(out.Suggestions))
	}
}
