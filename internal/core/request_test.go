package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/querylog"
	"repro/internal/synth"
)

// frequentQueries returns every query appearing at least min times.
func frequentQueries(t *testing.T, l *querylog.Log, min int) []string {
	t.Helper()
	var out []string
	for q, n := range l.QueryFrequency() {
		if n >= min {
			out = append(out, q)
		}
	}
	if len(out) == 0 {
		t.Fatal("no frequent queries in fixture")
	}
	return out
}

// SkipPersonalization returns the diversified order even with profiles
// present, at the build generation.
func TestDoSkipPersonalization(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)
	skip, err := e.Do(context.Background(), SuggestRequest{User: w.UserIDs()[0], Query: pickQuery(t, w), At: time.Now(), K: 8, SkipPersonalization: true})
	if err != nil {
		t.Fatal(err)
	}
	if skip.Generation != 1 {
		t.Fatalf("generation = %d at build", skip.Generation)
	}
	if !reflect.DeepEqual(skip.Suggestions, skip.Diversified) {
		t.Fatal("SkipPersonalization re-ranked anyway")
	}
}

func TestDoRejectsNonPositiveK(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	for _, k := range []int{0, -1} {
		if _, err := e.Do(context.Background(), SuggestRequest{Query: pickQuery(t, w), K: k}); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
}

// Cached and uncached answers must be byte-identical over a randomized
// workload (the acceptance criterion): the cache is a memoization, not
// an approximation.
func TestCachedResultsIdenticalToUncached(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)
	e.EnableCache(256, 0)
	qs := frequentQueries(t, w.Log, 3)
	users := w.UserIDs()
	base := time.Now()
	// Context offsets chosen in distinct decay buckets so equal keys
	// imply equal inputs.
	offsets := []time.Duration{0, 30 * time.Second, 5 * time.Minute}

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		req := SuggestRequest{
			User:  users[rng.Intn(len(users))],
			Query: qs[rng.Intn(len(qs))],
			At:    base,
			K:     3 + rng.Intn(8),
		}
		if rng.Intn(2) == 0 {
			req.Context = []querylog.Entry{{
				Query: qs[rng.Intn(len(qs))],
				Time:  base.Add(-offsets[rng.Intn(len(offsets))]),
			}}
		}
		cached, err1 := e.Do(context.Background(), req)
		nocache := req
		nocache.NoCache = true
		fresh, err2 := e.Do(context.Background(), nocache)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("request %d: cached err %v, uncached err %v", i, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if !reflect.DeepEqual(cached.Suggestions, fresh.Suggestions) {
			t.Fatalf("request %d (%+v):\ncached   %v\nuncached %v", i, req, cached.Suggestions, fresh.Suggestions)
		}
		if !reflect.DeepEqual(cached.Diversified, fresh.Diversified) {
			t.Fatalf("request %d: diversified lists diverged", i)
		}
	}
	if st := e.Cache().Stats(); st.Hits == 0 {
		t.Fatalf("workload never hit the cache: %+v", st)
	}
}

// One cache entry serves every user: the diversified list is computed
// once, personalization re-ranks per user on the hit.
func TestCacheSharedAcrossUsers(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)
	e.EnableCache(64, 0)
	q := pickQuery(t, w)
	at := time.Now()

	before := e.SolveCount()
	var firstDiversified []string
	for i, user := range w.UserIDs() {
		res, err := e.Do(context.Background(), SuggestRequest{User: user, Query: q, At: at, K: 8})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstDiversified = res.Diversified
			if res.CacheHit {
				t.Fatal("first request hit an empty cache")
			}
			continue
		}
		if !res.CacheHit {
			t.Fatalf("user %s missed the shared entry", user)
		}
		if !reflect.DeepEqual(res.Diversified, firstDiversified) {
			t.Fatalf("user %s got a different diversified list", user)
		}
	}
	if got := e.SolveCount() - before; got != 1 {
		t.Fatalf("%d CG solves for %d users asking the same query", got, len(w.UserIDs()))
	}
}

// Concurrent identical requests must coalesce to ONE CG solve.
func TestConcurrentRequestsCoalesceToOneSolve(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	e.EnableCache(64, 0)
	q := pickQuery(t, w)
	at := time.Now()

	before := e.SolveCount()
	const n = 24
	var wg sync.WaitGroup
	results := make([][]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Do(context.Background(), SuggestRequest{Query: q, At: at, K: 8})
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			results[i] = res.Suggestions
		}(i)
	}
	wg.Wait()
	if got := e.SolveCount() - before; got != 1 {
		t.Fatalf("%d CG solves for %d concurrent identical requests", got, n)
	}
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d saw a different list", i)
		}
	}
}

// A hot-swap must atomically invalidate: the rebuilt engine's first
// request re-runs the pipeline against the new snapshot instead of
// serving the predecessor's cached list.
func TestSwapInvalidatesCache(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	cache := e.EnableCache(64, 0)
	q := pickQuery(t, w)
	at := time.Now()

	res1, err := e.Do(context.Background(), SuggestRequest{Query: q, At: at, K: 8})
	if err != nil {
		t.Fatal(err)
	}

	// Rebuild with fresh entries (the server's refresh path).
	fresh := []querylog.Entry{{UserID: "new", Query: q, Time: at}}
	next, err := e.Rebuild(fresh, RebuildGraphs)
	if err != nil {
		t.Fatal(err)
	}
	if next.Generation() != e.Generation()+1 {
		t.Fatalf("generations: old %d, rebuilt %d", e.Generation(), next.Generation())
	}
	if next.Cache() != cache {
		t.Fatal("rebuilt engine does not share the cache")
	}

	res2, err := next.Do(context.Background(), SuggestRequest{Query: q, At: at, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHit {
		t.Fatal("post-swap request served a pre-swap cached entry")
	}
	if res2.Generation != next.Generation() {
		t.Fatalf("post-swap result stamped generation %d, want %d", res2.Generation, next.Generation())
	}
	// The old engine still serves ITS cached entry (in-flight requests
	// that loaded it pre-swap stay consistent).
	res1b, err := e.Do(context.Background(), SuggestRequest{Query: q, At: at, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res1b.CacheHit || !reflect.DeepEqual(res1b.Diversified, res1.Diversified) {
		t.Fatal("pre-swap snapshot lost its cache entry")
	}
}

func TestContextFingerprint(t *testing.T) {
	at := time.Now()
	lambda := math.Ln2 / 60 // half-life: one minute
	entry := func(q string, ago time.Duration) querylog.Entry {
		return querylog.Entry{Query: q, Time: at.Add(-ago)}
	}

	if got := ContextFingerprint(nil, at, lambda); got != "" {
		t.Errorf("empty context fingerprint = %q", got)
	}
	// Same bucket (quarter half-life = 15s): indistinguishable decay.
	a := ContextFingerprint([]querylog.Entry{entry("solar power", 2*time.Second)}, at, lambda)
	b := ContextFingerprint([]querylog.Entry{entry("Solar  POWER!", 9*time.Second)}, at, lambda)
	if a != b {
		t.Errorf("near-identical contexts fingerprint apart:\n%q\n%q", a, b)
	}
	// A minute of extra age changes the weight materially → new bucket.
	c := ContextFingerprint([]querylog.Entry{entry("solar power", 62*time.Second)}, at, lambda)
	if a == c {
		t.Error("materially decayed context shares a fingerprint")
	}
	// Different query, same bucket → different fingerprint.
	d := ContextFingerprint([]querylog.Entry{entry("lunar power", 2*time.Second)}, at, lambda)
	if a == d {
		t.Error("different context queries share a fingerprint")
	}
	// A context decayed to irrelevance (weight < 1e-4) drops out
	// entirely: it cannot fragment the cache.
	e := ContextFingerprint([]querylog.Entry{entry("ancient history", 24*time.Hour)}, at, lambda)
	if e != "" {
		t.Errorf("irrelevant context kept in fingerprint: %q", e)
	}
	// Order matters (Eq. 7 is built over an ordered context).
	two := []querylog.Entry{entry("aa", time.Second), entry("bb", 40*time.Second)}
	rev := []querylog.Entry{two[1], two[0]}
	if ContextFingerprint(two, at, lambda) == ContextFingerprint(rev, at, lambda) {
		t.Error("reordered context shares a fingerprint")
	}
}

// The fingerprint's separators must make (query, bucket) splits
// unambiguous even for adversarially similar contexts.
func TestContextFingerprintNoSplitCollisions(t *testing.T) {
	at := time.Now()
	lambda := math.Ln2 / 60
	a := ContextFingerprint([]querylog.Entry{
		{Query: "a", Time: at}, {Query: "b", Time: at},
	}, at, lambda)
	b := ContextFingerprint([]querylog.Entry{
		{Query: "a b", Time: at},
	}, at, lambda)
	if a == b {
		t.Fatalf("contexts [a, b] and [a b] collide: %q", a)
	}
}

// TTL'd entries expire even within a generation.
func TestCacheTTLInDo(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	cache := e.EnableCache(64, time.Minute)
	now := time.Now()
	clock := now
	cache.SetClock(func() time.Time { return clock })

	q := pickQuery(t, w)
	if _, err := e.Do(context.Background(), SuggestRequest{Query: q, At: now, K: 5}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Do(context.Background(), SuggestRequest{Query: q, At: now, K: 5})
	if err != nil || !res.CacheHit {
		t.Fatalf("fresh entry not served: %v %v", res.CacheHit, err)
	}
	clock = clock.Add(2 * time.Minute)
	res, err = e.Do(context.Background(), SuggestRequest{Query: q, At: now, K: 5})
	if err != nil || res.CacheHit {
		t.Fatalf("expired entry served: %v %v", res.CacheHit, err)
	}
}

// Race hammer over the full core path: suggestions against a shared
// cache while rebuilds swap generations. Run with -race.
func TestDoHammerWithRebuilds(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	e.EnableCache(128, 0)
	qs := frequentQueries(t, w.Log, 3)
	at := time.Now()

	// current is the "serving pointer" the hammer loads, as the server
	// does with its atomic.Pointer.
	var mu sync.Mutex
	current := e
	load := func() *Engine { mu.Lock(); defer mu.Unlock(); return current }

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				eng := load()
				res, err := eng.Do(context.Background(), SuggestRequest{
					Query: qs[(g+i)%len(qs)], At: at, K: 5,
				})
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
				// The invariant under swap: a result is always stamped
				// with the generation of the engine that served it.
				if res.Generation != eng.Generation() {
					t.Errorf("result generation %d from engine generation %d", res.Generation, eng.Generation())
					return
				}
			}
		}(g)
	}
	for i := 0; i < 4; i++ {
		fresh := []querylog.Entry{{UserID: "u", Query: qs[i%len(qs)], Time: at}}
		next, err := load().Rebuild(fresh, RebuildGraphs)
		if err != nil {
			t.Errorf("rebuild %d: %v", i, err)
			break
		}
		mu.Lock()
		current = next
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
}

func BenchmarkDoCached(b *testing.B) {
	benchDo(b, true)
}

func BenchmarkDoUncached(b *testing.B) {
	benchDo(b, false)
}

// benchDo measures a repeated-query workload — the head-query pattern
// the cache exists for. The cached variant must beat the uncached one
// by ≥5× (acceptance criterion; in practice it is orders of magnitude).
func benchDo(b *testing.B, cached bool) {
	w := synth.Generate(synth.Config{Seed: 51, NumFacets: 6, NumUsers: 12, SessionsPerUser: 15})
	e, err := NewEngine(w.Log, Config{SkipPersonalization: true})
	if err != nil {
		b.Fatal(err)
	}
	if cached {
		e.EnableCache(1024, 0)
	}
	// The head of the query distribution: the five most frequent
	// queries, i.e. the traffic a production cache actually absorbs.
	type qf struct {
		q string
		n int
	}
	var freq []qf
	for q, n := range w.Log.QueryFrequency() {
		freq = append(freq, qf{q, n})
	}
	sort.Slice(freq, func(i, j int) bool {
		if freq[i].n != freq[j].n {
			return freq[i].n > freq[j].n
		}
		return freq[i].q < freq[j].q
	})
	if len(freq) > 5 {
		freq = freq[:5]
	}
	qs := make([]string, len(freq))
	for i, f := range freq {
		qs[i] = f.q
	}
	if len(qs) == 0 {
		b.Skip("no frequent queries")
	}
	at := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := SuggestRequest{Query: qs[i%len(qs)], At: at, K: 10, NoCache: !cached}
		if _, err := e.Do(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestZipfReplay replays a Zipf-distributed query workload — the shape
// of real suggestion traffic — against a cached engine and reports the
// hit rate and latency percentiles recorded in EXPERIMENTS.md. Run
// with -v to see the numbers.
func TestZipfReplay(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)
	e.EnableCache(4096, 0)
	users := w.UserIDs()

	// Rank the distinct queries by log frequency; the Zipf draw maps
	// rank 0 to the hottest query.
	type qf struct {
		q string
		n int
	}
	var freq []qf
	for q, n := range w.Log.QueryFrequency() {
		if _, ok := e.Rep().QueryID(q); ok {
			freq = append(freq, qf{q, n})
		}
	}
	sort.Slice(freq, func(i, j int) bool {
		if freq[i].n != freq[j].n {
			return freq[i].n > freq[j].n
		}
		return freq[i].q < freq[j].q
	})
	// Probe each candidate through the uncached path (cache stats
	// untouched) and keep only servable queries: a handful of known
	// queries are still unservable (degenerate compact neighborhoods).
	at := time.Now()
	var qs []string
	for _, f := range freq {
		if _, err := e.Do(context.Background(), SuggestRequest{Query: f.q, At: at, K: 10, SkipPersonalization: true, NoCache: true}); err == nil {
			qs = append(qs, f.q)
		}
	}
	if len(qs) < 10 {
		t.Fatalf("only %d servable queries in fixture", len(qs))
	}

	rng := rand.New(rand.NewSource(9))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(qs)-1))
	percentile := func(lat []time.Duration, p float64) time.Duration {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[int(float64(len(lat)-1)*p)]
	}

	run := func(n int, noCache bool) (lats []time.Duration) {
		for i := 0; i < n; i++ {
			req := SuggestRequest{
				User:  users[rng.Intn(len(users))],
				Query: qs[zipf.Uint64()],
				At:    at, K: 10, NoCache: noCache,
			}
			s0 := time.Now()
			if _, err := e.Do(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			lats = append(lats, time.Since(s0))
		}
		return lats
	}

	const n = 4000
	cached := run(n, false)
	st := e.Cache().Stats()
	uncached := run(400, true)

	hitRate := st.HitRate()
	t.Logf("zipf replay: %d requests over %d distinct queries (s=1.1)", n, len(qs))
	t.Logf("cache: hits=%d misses=%d coalesced=%d  hit rate %.1f%%",
		st.Hits, st.Misses, st.Coalesced, 100*hitRate)
	t.Logf("cached   p50=%v p99=%v", percentile(cached, 0.50), percentile(cached, 0.99))
	t.Logf("uncached p50=%v p99=%v", percentile(uncached, 0.50), percentile(uncached, 0.99))

	if hitRate < 0.5 {
		t.Errorf("hit rate %.2f on a Zipf workload: cache ineffective", hitRate)
	}
	if p50c, p50u := percentile(cached, 0.50), percentile(uncached, 0.50); p50c*5 > p50u {
		t.Errorf("cached p50 %v not ≥5× faster than uncached p50 %v", p50c, p50u)
	}
}
