package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/synth"
)

// Chaos/overload suite: floods, shed correctness, breaker transitions
// and the degraded fallback. Everything here runs under `make chaos`
// with -race — admission control is exactly the code that only breaks
// under concurrency.

// chaosClock is a deterministic clock for driving breaker transitions.
type chaosClock struct {
	mu  sync.Mutex
	now time.Time
}

func newChaosClock() *chaosClock {
	return &chaosClock{now: time.Unix(1700000000, 0)}
}

func (c *chaosClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *chaosClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// The error-envelope decode type is shared with v1_test.go (envelope).

func getRaw(t *testing.T, u string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestFloodShedsWith429AndBoundedQueue is the core overload scenario:
// with the single pipeline slot held and the queue full, every further
// request must shed immediately with 429 + Retry-After — never pile up.
func TestFloodShedsWith429AndBoundedQueue(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	srv.SetAdmission(admission.Config{
		Suggest: admission.GateConfig{Limit: 1, Queue: 2, MaxWait: 5 * time.Second},
	})
	q := pickKnownQuery(t, w)
	suggestURL := ts.URL + "/v1/suggest?q=" + url.QueryEscape(q)

	// Occupy the only slot so HTTP requests queue deterministically.
	gate := srv.Admission().Suggest
	if _, err := gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	const flood = 10
	type outcome struct {
		status     int
		retryAfter string
		code       string
	}
	results := make(chan outcome, flood)
	var wg sync.WaitGroup
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := getRaw(t, suggestURL)
			var env envelope
			_ = json.Unmarshal(body, &env)
			code := ""
			if env.Error != nil {
				code = env.Error.Code
			}
			results <- outcome{resp.StatusCode, resp.Header.Get("Retry-After"), code}
		}()
	}
	// Wait until the bounded queue has filled (2 waiters) AND the other
	// 8 requests have all shed, then release the slot: only the two
	// queued requests run and succeed. Releasing earlier would let a
	// slow-starting goroutine find the recycled slot free and sneak in.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, shedFull, _ := gate.Stats()
		if gate.Waiting() == 2 && shedFull == flood-2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth = %d, shedFull = %d; want 2 and %d", gate.Waiting(), shedFull, flood-2)
		}
		time.Sleep(time.Millisecond)
	}
	if gate.Waiting() > 2 {
		t.Fatalf("queue depth %d exceeds bound 2", gate.Waiting())
	}
	gate.Release()
	wg.Wait()
	close(results)

	ok, shed := 0, 0
	for r := range results {
		switch r.status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if r.retryAfter == "" {
				t.Error("shed response missing Retry-After")
			}
			if r.code != "overloaded" {
				t.Errorf("shed code = %q, want overloaded", r.code)
			}
		default:
			t.Errorf("unexpected status %d", r.status)
		}
	}
	if ok != 2 || shed != 8 {
		t.Fatalf("ok = %d, shed = %d; want 2 admitted (the queued pair), 8 shed", ok, shed)
	}
	admitted, shedFull, _ := gate.Stats()
	if shedFull != 8 {
		t.Fatalf("gate shedFull = %d, want 8", shedFull)
	}
	if admitted != 3 { // the test's own Acquire + the two queued requests
		t.Fatalf("gate admitted = %d, want 3", admitted)
	}
	if gate.InFlight() != 0 || gate.Waiting() != 0 {
		t.Fatalf("gate not drained: inFlight=%d waiting=%d", gate.InFlight(), gate.Waiting())
	}
}

// TestFloodConcurrentBounds hammers the server at 4x the concurrency
// cap with real pipeline work and asserts the bounds hold under -race:
// every response is 200 or a well-formed 429, and the queue histogram
// never observed a depth over the configured bound.
func TestFloodConcurrentBounds(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	const limit, queue = 2, 2
	srv.SetAdmission(admission.Config{
		Suggest: admission.GateConfig{Limit: limit, Queue: queue, MaxWait: 2 * time.Millisecond},
	})
	q := pickKnownQuery(t, w)
	suggestURL := ts.URL + "/v1/suggest?nocache=1&q=" + url.QueryEscape(q)

	const clients, perClient = 8, 10 // 4x the cap, sustained
	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := map[int]int{}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, _ := getRaw(t, suggestURL)
				if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				mu.Lock()
				statuses[resp.StatusCode]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for code := range statuses {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Fatalf("unexpected status %d (distribution %v)", code, statuses)
		}
	}
	if statuses[http.StatusOK] == 0 {
		t.Fatal("flood starved every request; gate admitted nothing")
	}
	gate := srv.Admission().Suggest
	if gate.InFlight() != 0 || gate.Waiting() != 0 {
		t.Fatalf("gate not drained: inFlight=%d waiting=%d", gate.InFlight(), gate.Waiting())
	}
	// The queue-depth histogram's max is the strongest "bounded" proof:
	// no admission attempt ever saw more than `queue` waiters.
	if max := srv.tel.queueDepth.Snapshot().Max; max > queue {
		t.Fatalf("observed queue depth %v exceeds bound %d", max, queue)
	}
}

// TestBreakerDegradedFallback drives the full breaker lifecycle over
// HTTP: trip it with deadline failures, verify open state serves the
// generation-keyed cached diversified list with degraded:true (and 503
// for uncached queries), then recover through half-open probes.
func TestBreakerDegradedFallback(t *testing.T) {
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
	q := pickKnownQuery(t, w)
	suggestURL := ts.URL + "/v1/suggest?q=" + url.QueryEscape(q)
	breaker := srv.Admission().Breaker

	// Prime the cache while healthy.
	var warm SuggestResponse
	if code := getJSON(t, suggestURL, &warm); code != http.StatusOK {
		t.Fatalf("warm request: %d", code)
	}
	if warm.Degraded {
		t.Fatal("healthy response marked degraded")
	}

	// Trip: an impossible deadline makes every real pipeline run fail
	// (nocache so the primed cache cannot mask the failures).
	srv.SetRequestTimeout(time.Nanosecond)
	for i := 0; i < 10 && breaker.State() != admission.Open; i++ {
		resp, _ := getRaw(t, suggestURL+"&nocache=1")
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("failure-injection request %d: status %d, want 504", i, resp.StatusCode)
		}
	}
	srv.SetRequestTimeout(0)
	if st := breaker.State(); st != admission.Open {
		t.Fatalf("breaker state = %v, want Open after sustained deadline failures", st)
	}

	// Open: the cached query is served degraded, bit-identical to the
	// cached diversified list, without running the pipeline.
	solves := srv.Engine().SolveCount()
	var deg SuggestResponse
	if code := getJSON(t, suggestURL, &deg); code != http.StatusOK {
		t.Fatalf("degraded request: %d", code)
	}
	if !deg.Degraded || !deg.Cached {
		t.Fatalf("degraded=%v cached=%v, want both true", deg.Degraded, deg.Cached)
	}
	if strings.Join(deg.Diversified, "\x00") != strings.Join(warm.Diversified, "\x00") {
		t.Fatalf("degraded list diverged from cached list:\n%v\n%v", deg.Diversified, warm.Diversified)
	}
	if srv.Engine().SolveCount() != solves {
		t.Fatal("degraded request ran a CG solve")
	}

	// Open + uncached query: 503 degraded_unavailable with Retry-After.
	other := otherKnownQuery(t, w, q)
	resp, body := getRaw(t, ts.URL+"/v1/suggest?q="+url.QueryEscape(other))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("uncached degraded status = %d, want 503 (body %s)", resp.StatusCode, body)
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "degraded_unavailable" {
		t.Fatalf("code = %q, want degraded_unavailable", env.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}

	// Cooldown elapses → half-open; two successful probes (nocache so
	// they run the real pipeline, which is healthy again) close it.
	clk.Advance(6 * time.Second)
	if st := breaker.State(); st != admission.HalfOpen {
		t.Fatalf("breaker state = %v, want HalfOpen after cooldown", st)
	}
	for i := 0; i < 2; i++ {
		var probe SuggestResponse
		if code := getJSON(t, suggestURL+"&nocache=1", &probe); code != http.StatusOK {
			t.Fatalf("probe %d: status %d", i, code)
		}
		if probe.Degraded {
			t.Fatalf("probe %d served degraded; wanted a real pipeline run", i)
		}
	}
	if st := breaker.State(); st != admission.Closed {
		t.Fatalf("breaker state = %v, want Closed after successful probes", st)
	}
	var healthy SuggestResponse
	if code := getJSON(t, suggestURL, &healthy); code != http.StatusOK || healthy.Degraded {
		t.Fatalf("post-recovery: code %d degraded %v", code, healthy.Degraded)
	}
	if breaker.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", breaker.Opens())
	}
}

// otherKnownQuery picks a logged query different from avoid (so it is
// in the representation but not in the suggestion cache).
func otherKnownQuery(t *testing.T, w *synth.World, avoid string) string {
	t.Helper()
	for q := range w.Log.QueryFrequency() {
		if q != avoid {
			return q
		}
	}
	t.Fatal("no second known query in the synthetic world")
	return ""
}

// TestPerUserRateLimit exhausts one user's token bucket and verifies
// the 429 names the right code while other users sail through.
func TestPerUserRateLimit(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	srv.SetAdmission(admission.Config{
		User: admission.RateConfig{Rate: 0.001, Burst: 2},
	})
	q := pickKnownQuery(t, w)
	mk := func(user string) string {
		return ts.URL + "/v1/suggest?user=" + user + "&q=" + url.QueryEscape(q)
	}
	for i := 0; i < 2; i++ {
		if code := getJSON(t, mk("alice"), nil); code != http.StatusOK {
			t.Fatalf("burst request %d: %d", i, code)
		}
	}
	resp, body := getRaw(t, mk("alice"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "rate_limited" {
		t.Fatalf("code = %q, want rate_limited", env.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	// Another user has their own bucket.
	if code := getJSON(t, mk("bob"), nil); code != http.StatusOK {
		t.Fatalf("other user: %d", code)
	}
	// Anonymous requests are exempt from the per-user bucket.
	if code := getJSON(t, ts.URL+"/v1/suggest?q="+url.QueryEscape(q), nil); code != http.StatusOK {
		t.Fatalf("anonymous: %d", code)
	}
}

// TestPerIPRateLimit floods from one IP (httptest traffic all comes
// from 127.0.0.1) and verifies the middleware turns requests away
// before any handler work, while /healthz and /metrics stay open.
func TestPerIPRateLimit(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	srv.SetAdmission(admission.Config{
		IP: admission.RateConfig{Rate: 0.001, Burst: 3},
	})
	q := pickKnownQuery(t, w)
	suggestURL := ts.URL + "/v1/suggest?q=" + url.QueryEscape(q)
	for i := 0; i < 3; i++ {
		if code := getJSON(t, suggestURL, nil); code != http.StatusOK {
			t.Fatalf("burst request %d: %d", i, code)
		}
	}
	resp, body := getRaw(t, suggestURL)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "rate_limited" {
		t.Fatalf("code = %q, want rate_limited", env.Error.Code)
	}
	// Observability and health must remain reachable while shedding —
	// they are outside the guarded /v1 surface by design.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz during shed: %d", code)
	}
	if r, _ := getRaw(t, ts.URL+"/metrics"); r.StatusCode != http.StatusOK {
		t.Fatalf("metrics during shed: %d", r.StatusCode)
	}
	if srv.stats.shedRateIP.Load() < 1 {
		t.Fatalf("shedRateIP = %d, want >= 1", srv.stats.shedRateIP.Load())
	}
}

// TestStatsAdmissionSection: /v1/stats carries the admission section —
// counters, breaker state, gate occupancy, limiter key counts.
func TestStatsAdmissionSection(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	srv.SetAdmission(admission.DefaultConfig())
	q := pickKnownQuery(t, w)
	if code := getJSON(t, ts.URL+"/v1/suggest?q="+url.QueryEscape(q), nil); code != http.StatusOK {
		t.Fatalf("suggest: %d", code)
	}
	var stats map[string]any
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	adm, ok := stats["admission"].(map[string]any)
	if !ok {
		t.Fatalf("no admission section in /v1/stats: %v", stats)
	}
	if adm["enabled"] != true {
		t.Fatalf("enabled = %v, want true", adm["enabled"])
	}
	if adm["admitted"].(float64) < 1 {
		t.Fatalf("admitted = %v, want >= 1", adm["admitted"])
	}
	br := adm["breaker"].(map[string]any)
	if br["state"] != "closed" {
		t.Fatalf("breaker state = %v, want closed", br["state"])
	}
	gate := adm["suggestGate"].(map[string]any)
	if gate["limit"].(float64) <= 0 {
		t.Fatalf("suggest gate limit = %v, want > 0", gate["limit"])
	}
	if _, ok := adm["queueDepth"].(map[string]any); !ok {
		t.Fatal("no queueDepth histogram in admission section")
	}
}

// TestBodyCapReturns413: POST bodies over -max-body-bytes are a 413
// payload_too_large envelope, not an unbounded read (the old decoder
// read any body to the end).
func TestBodyCapReturns413(t *testing.T) {
	srv, ts, _, _ := testServer(t)
	srv.SetMaxBodyBytes(64)
	big := `{"user":"u0001","query":"` + strings.Repeat("x", 256) + `"}`
	resp, err := http.Post(ts.URL+"/v1/log", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "payload_too_large" {
		t.Fatalf("code = %q, want payload_too_large", env.Error.Code)
	}
	if srv.stats.bodyTooLarge.Load() != 1 {
		t.Fatalf("bodyTooLarge counter = %d, want 1", srv.stats.bodyTooLarge.Load())
	}
	// A body under the cap still works.
	if code := postJSON(t, ts.URL+"/v1/log", map[string]string{"user": "u", "query": "q"}, nil); code != http.StatusOK {
		t.Fatalf("small body: %d", code)
	}
}

// TestTrailingGarbageRejected: the shared decoder must reject JSON
// bodies with trailing data — json.Decoder reads a stream, so without
// the explicit EOF check `{"query":"x"}{"admin":true}` decoded fine
// and the second value was silently ignored.
func TestTrailingGarbageRejected(t *testing.T) {
	_, ts, w, _ := testServer(t)
	q := pickKnownQuery(t, w)
	for _, body := range []string{
		`{"query":"` + q + `"}garbage`,
		`{"query":"` + q + `"}{"query":"second"}`,
		`{"query":"` + q + `"} 1`,
	} {
		resp, err := http.Post(ts.URL+"/v1/suggest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != "bad_json" {
			t.Fatalf("body %q: status %d code %q, want 400 bad_json", body, resp.StatusCode, env.Error.Code)
		}
	}
	// Trailing whitespace is NOT garbage; a normal body still decodes.
	resp, err := http.Post(ts.URL+"/v1/suggest", "application/json", strings.NewReader(`{"query":"`+q+`"}`+"\n  "))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trailing whitespace rejected: %d", resp.StatusCode)
	}
	// Empty bodies keep their documented defaults semantics.
	if code := postJSON(t, ts.URL+"/v1/refresh", nil, nil); code != http.StatusOK {
		t.Fatalf("empty refresh body: %d", code)
	}
}

// TestBatchItemsShedIndividually: a batch bigger than the gate capacity
// returns per-item 429s, not an all-or-nothing failure.
func TestBatchItemsShedIndividually(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	srv.SetAdmission(admission.Config{
		Suggest: admission.GateConfig{Limit: 1, Queue: 0, MaxWait: time.Millisecond},
	})
	// Hold the only slot: every batch item must shed, but the batch
	// request itself still answers 200 with per-item errors.
	gate := srv.Admission().Suggest
	if _, err := gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer gate.Release()

	q := pickKnownQuery(t, w)
	var batch BatchSuggestResponse
	code := postJSON(t, ts.URL+"/v1/suggest/batch", map[string]any{
		"requests": []map[string]any{{"query": q}, {"query": q}},
	}, &batch)
	if code != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", code)
	}
	for i, item := range batch.Results {
		if item.Status != http.StatusTooManyRequests {
			t.Fatalf("item %d status = %d, want 429", i, item.Status)
		}
		if item.Error == nil || item.Error.Code != "overloaded" {
			t.Fatalf("item %d error = %+v, want overloaded", i, item.Error)
		}
	}
}

// TestLearnAndRefreshGated: the mutate stage classes have their own
// gates — a held learn slot sheds further learns but does not block
// suggestions.
func TestLearnAndRefreshGated(t *testing.T) {
	srv, ts, w, _ := testServer(t)
	srv.SetAdmission(admission.Config{
		Learn:   admission.GateConfig{Limit: 1, Queue: 0, MaxWait: time.Millisecond},
		Refresh: admission.GateConfig{Limit: 1, Queue: 0, MaxWait: time.Millisecond},
	})
	ctrl := srv.Admission()
	if _, err := ctrl.Learn.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ctrl.Learn.Release()
	if _, err := ctrl.Refresh.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer ctrl.Refresh.Release()

	var env envelope
	if code := postJSON(t, ts.URL+"/v1/learn", map[string]string{"user": "u0001"}, &env); code != http.StatusTooManyRequests {
		t.Fatalf("learn status = %d, want 429", code)
	}
	if env.Error.Code != "overloaded" {
		t.Fatalf("learn code = %q", env.Error.Code)
	}
	if code := postJSON(t, ts.URL+"/v1/refresh", map[string]string{}, &env); code != http.StatusTooManyRequests {
		t.Fatalf("refresh status = %d, want 429", code)
	}
	// Suggest is a different stage class: unaffected.
	q := pickKnownQuery(t, w)
	if code := getJSON(t, ts.URL+"/v1/suggest?q="+url.QueryEscape(q), nil); code != http.StatusOK {
		t.Fatalf("suggest while mutate gates held: %d", code)
	}
}

// nullResponseWriter is the cheapest possible sink for the shed
// benchmark: a reusable header map and a discarding body.
type nullResponseWriter struct{ h http.Header }

func (w nullResponseWriter) Header() http.Header         { return w.h }
func (w nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w nullResponseWriter) WriteHeader(int)             {}

// BenchmarkShedPath measures the full handler cost of shedding one
// flood request — gate check, counters, histogram, precomputed 429
// body. Guarded at ≤2 allocs/op in `make bench-guard` (the two header
// value slices); anything above means the shed path started doing
// per-request work it must not do under flood.
func BenchmarkShedPath(b *testing.B) {
	srv := New(nil, nil)
	srv.SetAdmission(admission.Config{
		Suggest: admission.GateConfig{Limit: 1, Queue: 0, MaxWait: time.Millisecond},
	})
	if _, err := srv.Admission().Suggest.Acquire(context.Background()); err != nil {
		b.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodGet, "/v1/suggest?q=x", nil)
	w := nullResponseWriter{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.handleSuggest(w, r)
	}
	if srv.stats.shedOverloaded.Load() != int64(b.N) {
		b.Fatalf("shed %d of %d", srv.stats.shedOverloaded.Load(), b.N)
	}
}

// TestFlashCrowdReport replays a flash crowd — 48 clients hammering
// cold (nocache) suggestions — twice: once with admission control off
// and once with the suggest gate capped, and prints the latency/error
// mix of both runs. It is the measurement harness behind the
// EXPERIMENTS.md overload table, not a regression test, so it only
// runs when PQSDA_FLASHCROWD=1.
func TestFlashCrowdReport(t *testing.T) {
	if os.Getenv("PQSDA_FLASHCROWD") != "1" {
		t.Skip("set PQSDA_FLASHCROWD=1 to run the flash-crowd measurement")
	}
	const (
		clients  = 96
		perEach  = 10
		gateSize = 4
	)
	// A transport with enough connections that the crowd actually lands
	// on the server concurrently — the default pool would serialize it
	// client-side and mask the overload.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
	}}
	// A deliberately heavy world — unlike testServer's — so one nocache
	// suggestion costs real pipeline work and the crowd can actually
	// saturate the box.
	world := synth.Generate(synth.Config{Seed: 7, NumFacets: 8, NumUsers: 48, SessionsPerUser: 40})
	run := func(admit bool) (p50ok, p99ok, p99all time.Duration, okN, shedN, errN int) {
		engine, err := core.NewEngine(world.Log, core.Config{
			Compact:             bipartite.CompactConfig{Budget: 200},
			SkipPersonalization: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(engine, io.Discard)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		if admit {
			srv.SetAdmission(admission.Config{
				Suggest: admission.GateConfig{Limit: gateSize, Queue: gateSize, MaxWait: 10 * time.Millisecond},
			})
		}
		q := pickKnownQuery(t, world)
		u := ts.URL + "/v1/suggest?nocache=1&q=" + url.QueryEscape(q)
		var mu sync.Mutex
		var okLat, allLat []time.Duration
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perEach; i++ {
					start := time.Now()
					resp, _ := client.Get(u)
					el := time.Since(start)
					mu.Lock()
					allLat = append(allLat, el)
					switch {
					case resp != nil && resp.StatusCode == http.StatusOK:
						okLat = append(okLat, el)
						okN++
					case resp != nil && resp.StatusCode == http.StatusTooManyRequests:
						shedN++
					default:
						errN++
					}
					mu.Unlock()
					if resp != nil {
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}()
		}
		wg.Wait()
		pct := func(d []time.Duration, p float64) time.Duration {
			if len(d) == 0 {
				return 0
			}
			sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
			i := int(p * float64(len(d)-1))
			return d[i]
		}
		return pct(okLat, 0.50), pct(okLat, 0.99), pct(allLat, 0.99), okN, shedN, errN
	}

	for _, mode := range []bool{false, true} {
		p50, p99, p99all, okN, shedN, errN := run(mode)
		t.Logf("admission=%v: ok=%d shed=%d err=%d p50(ok)=%v p99(ok)=%v p99(all)=%v",
			mode, okN, shedN, errN, p50, p99, p99all)
	}
}
