package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/topicmodel"
)

func jsonBody(v any) io.Reader {
	raw, _ := json.Marshal(v)
	return bytes.NewReader(raw)
}

// heavyServer builds a personalized fixture whose retrain-mode refresh
// is slow enough (hundreds of Gibbs sweeps) to open a measurable window
// for concurrent suggestion traffic.
func heavyServer(t *testing.T) (*Server, *httptest.Server, *synth.World) {
	t.Helper()
	w := synth.Generate(synth.Config{Seed: 7, NumFacets: 5, NumUsers: 16, SessionsPerUser: 20})
	engine, err := core.NewEngine(w.Log, core.Config{
		Compact: bipartite.CompactConfig{Budget: 60},
		UPM:     topicmodel.UPMConfig{K: 5, Iterations: 150, Seed: 1, HyperRounds: 1, HyperIters: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(engine, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, w
}

// TestSuggestNotBlockedByRetrain is the tentpole's acceptance test: with
// a retrain-mode /v1/refresh in flight, concurrent /v1/suggest
// requests must keep completing on the old engine instead of queueing
// behind the rebuild. Run with -race: it also exercises the
// clone→mutate→swap path against lock-free engine loads.
func TestSuggestNotBlockedByRetrain(t *testing.T) {
	_, ts, w := heavyServer(t)
	q := url.QueryEscape(pickKnownQuery(t, w))
	users := w.UserIDs()

	// Seed fresh traffic so the refresh has something to ingest.
	for i := 0; i < 5; i++ {
		postJSON(t, ts.URL+"/v1/log", LogRequest{User: "fresh", Query: "hot swap probe"}, nil)
	}

	// Kick off the retrain and record its window.
	type window struct {
		start, end time.Time
		code       int
		body       map[string]any
	}
	refreshDone := make(chan window, 1)
	go func() {
		var out map[string]any
		wdw := window{start: time.Now()}
		resp, err := http.Post(ts.URL+"/v1/refresh", "application/json",
			jsonBody(RefreshRequest{Mode: "retrain"}))
		if err == nil {
			json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			wdw.code = resp.StatusCode
		}
		wdw.end = time.Now()
		wdw.body = out
		refreshDone <- wdw
	}()

	// Hammer suggestions until the refresh finishes.
	type sample struct{ start, end time.Time }
	var mu sync.Mutex
	var samples []sample
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s0 := time.Now()
				resp, err := client.Get(fmt.Sprintf("%s/v1/suggest?user=%s&q=%s&k=5", ts.URL, users[(g+i)%len(users)], q))
				if err != nil {
					t.Errorf("suggest during refresh: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("suggest during refresh: status %d (a partially built engine?)", resp.StatusCode)
				}
				var out SuggestResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Errorf("suggest during refresh: bad JSON: %v", err)
				}
				resp.Body.Close()
				mu.Lock()
				samples = append(samples, sample{s0, time.Now()})
				mu.Unlock()
			}
		}(g)
	}

	wdw := <-refreshDone
	close(stop)
	wg.Wait()
	if wdw.code != http.StatusOK {
		t.Fatalf("retrain refresh: status %d (%v)", wdw.code, wdw.body)
	}
	refreshDur := wdw.end.Sub(wdw.start)

	// Count suggestions that ran entirely INSIDE the refresh window —
	// with the old whole-refresh engineMu.Lock they queued behind the
	// rebuild and zero could complete inside it.
	inside, maxLat := 0, time.Duration(0)
	for _, s := range samples {
		if lat := s.end.Sub(s.start); lat > maxLat {
			maxLat = lat
		}
		if s.start.After(wdw.start) && s.end.Before(wdw.end) {
			inside++
		}
	}
	t.Logf("refresh %v; %d suggests total, %d completed inside the refresh window, max latency %v",
		refreshDur, len(samples), inside, maxLat)
	if inside == 0 {
		t.Fatalf("no suggestion completed during the %v retrain window: serving blocked on refresh", refreshDur)
	}
	// Latency must not degrade toward the refresh duration. Only
	// meaningful when the retrain is actually slow; the /2 bound leaves
	// generous headroom on a loaded CI box.
	if refreshDur > 300*time.Millisecond && maxLat > refreshDur/2 {
		t.Errorf("max suggest latency %v approaches refresh duration %v: serving path stalled", maxLat, refreshDur)
	}
}

// TestRefreshSwapsEngineAndRecordsStats checks the swap is visible:
// traffic recorded pre-refresh becomes servable, the serving engine
// pointer changes, and /v1/stats reports the refresh.
func TestRefreshSwapsEngineAndRecordsStats(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	q := url.QueryEscape(pickKnownQuery(t, w))
	if code := getJSON(t, ts.URL+"/v1/suggest?user=u1&q="+q+"&k=5", nil); code != 200 {
		t.Fatalf("suggest: status %d", code)
	}
	before := srv.Engine()
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/v1/log", LogRequest{User: "fresh", Query: "swap visibility probe"}, nil)
	}
	if code := postJSON(t, ts.URL+"/v1/refresh", RefreshRequest{}, nil); code != 200 {
		t.Fatalf("refresh: status %d", code)
	}
	if srv.Engine() == before {
		t.Fatal("refresh did not swap the engine pointer")
	}
	if _, ok := before.Rep().QueryID("swap visibility probe"); ok {
		t.Fatal("refresh mutated the old serving engine")
	}
	if _, ok := srv.Engine().Rep().QueryID("swap visibility probe"); !ok {
		t.Fatal("swapped engine does not serve the ingested query")
	}
	var stats map[string]any
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats: status %d", code)
	}
	refresh := stats["refresh"].(map[string]any)
	if refresh["count"].(float64) != 1 || refresh["swaps"].(float64) != 1 {
		t.Errorf("refresh stats = %v, want count=1 swaps=1", refresh)
	}
	stages := stats["stages"].(map[string]any)
	if stages["solve"].(map[string]any)["count"].(float64) < 1 {
		t.Errorf("solve stage never observed: %v", stages)
	}
}

// TestSuggestDeadline504 checks the cancellation path end to end: an
// already-expired per-request deadline must return 504 with partial
// timings instead of running the solver to completion.
func TestSuggestDeadline504(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	srv.SetRequestTimeout(time.Nanosecond)
	q := url.QueryEscape(pickKnownQuery(t, w))
	resp, err := http.Get(ts.URL + "/v1/suggest?user=u1&q=" + q + "&k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504", resp.StatusCode)
	}
	var out struct {
		Error struct {
			Code    string         `json:"code"`
			Message string         `json:"message"`
			Details map[string]any `json:"details"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Error.Code != "deadline_exceeded" {
		t.Errorf("504 code = %q", out.Error.Code)
	}
	if _, ok := out.Error.Details["elapsedMs"]; !ok {
		t.Errorf("504 envelope missing partial timings: %+v", out.Error)
	}

	// Restore a generous deadline: the same request now succeeds.
	srv.SetRequestTimeout(time.Minute)
	var ok SuggestResponse
	if code := getJSON(t, ts.URL+"/v1/suggest?user=u1&q="+q+"&k=5", &ok); code != 200 {
		t.Fatalf("suggest with sane deadline: status %d", code)
	}

	var stats map[string]any
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if n := stats["suggest"].(map[string]any)["timeouts"].(float64); n != 1 {
		t.Errorf("timeout counter = %v, want 1", n)
	}
}

// TestLearnHotSwap checks /v1/learn follows the same clone→swap
// discipline: the pre-learn engine is never mutated.
func TestLearnHotSwap(t *testing.T) {
	srv, ts, w := personalizedServer(t)
	q := pickKnownQuery(t, w)
	before := srv.Engine()
	for i := 0; i < 4; i++ {
		postJSON(t, ts.URL+"/v1/log", LogRequest{User: "visitor", Query: q}, nil)
	}
	if code := postJSON(t, ts.URL+"/v1/learn", LearnRequest{User: "visitor"}, nil); code != 200 {
		t.Fatalf("learn: status %d", code)
	}
	if before.Profiles().Theta("visitor") != nil {
		t.Fatal("learn mutated the old serving engine's profiles")
	}
	if srv.Engine().Profiles().Theta("visitor") == nil {
		t.Fatal("swapped engine has no profile for the learned user")
	}
}
