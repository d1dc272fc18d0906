package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/querylog"
	"repro/internal/synth"
	"repro/internal/topicmodel"
)

func testEngineCompactCache(t *testing.T, w *synth.World, cacheSize int) *Engine {
	t.Helper()
	e, err := NewEngine(w.Log, Config{
		Compact:             bipartite.CompactConfig{Budget: 60},
		UPM:                 topicmodel.UPMConfig{K: 6, Iterations: 25, Seed: 1, HyperRounds: 1, HyperIters: 5},
		SkipPersonalization: true,
		CompactCache:        cacheSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// cappedFrequentQueries returns up to n distinct well-connected queries.
func cappedFrequentQueries(t *testing.T, w *synth.World, n int) []string {
	t.Helper()
	qs := frequentQueries(t, w.Log, 5)
	if len(qs) > n {
		qs = qs[:n]
	}
	return qs
}

// TestCompactCacheBitIdentical pins the cache's core contract: a
// request served from a cached compact returns exactly what an
// uncached engine returns — same suggestions, same solver telemetry.
func TestCompactCacheBitIdentical(t *testing.T) {
	w := testWorld(t)
	cached := testEngineCompactCache(t, w, 0)    // default-on
	uncached := testEngineCompactCache(t, w, -1) // disabled
	qs := cappedFrequentQueries(t, w, 5)
	now := time.Now()
	// Two passes: the second pass on the cached engine hits the LRU.
	for pass := 0; pass < 2; pass++ {
		for _, q := range qs {
			got, gerr := cached.Do(context.Background(), SuggestRequest{Query: q, At: now, K: 8, SkipPersonalization: true, NoCache: true})
			want, werr := uncached.Do(context.Background(), SuggestRequest{Query: q, At: now, K: 8, SkipPersonalization: true, NoCache: true})
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("pass %d %q: err %v vs %v", pass, q, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			if !reflect.DeepEqual(got.Diversified, want.Diversified) {
				t.Fatalf("pass %d %q: diversified %v != %v", pass, q, got.Diversified, want.Diversified)
			}
			if got.SolveIterations != want.SolveIterations || got.SolveResidual != want.SolveResidual {
				t.Fatalf("pass %d %q: solve telemetry (%d, %v) != (%d, %v)",
					pass, q, got.SolveIterations, got.SolveResidual, want.SolveIterations, want.SolveResidual)
			}
		}
	}
	st := cached.CompactCacheStats()
	if st.Hits == 0 {
		t.Fatalf("no compact-cache hits across repeat passes: %+v", st)
	}
	if st.Capacity != defaultCompactCacheSize {
		t.Fatalf("capacity = %d, want default %d", st.Capacity, defaultCompactCacheSize)
	}
	if ust := uncached.CompactCacheStats(); ust != (CompactCacheStats{}) {
		t.Fatalf("disabled cache reports stats %+v", ust)
	}
}

// TestCompactCacheGenerationInvalidation ensures a hot swap cannot
// serve compacts carved from the replaced snapshot: the rebuilt
// engine's results must match a fresh engine over the grown log.
func TestCompactCacheGenerationInvalidation(t *testing.T) {
	w := testWorld(t)
	e := testEngineCompactCache(t, w, 0)
	q := pickQuery(t, w)
	now := time.Now()
	if _, err := e.Do(context.Background(), SuggestRequest{Query: q, At: now, K: 8, SkipPersonalization: true, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	missesBefore := e.CompactCacheStats().Misses

	// Grow the log and hot-swap, then re-ask the same query.
	w2 := synth.Generate(synth.Config{Seed: 99, NumFacets: 6, NumUsers: 6, SessionsPerUser: 8})
	next, err := e.Rebuild(w2.Log.Entries, RebuildGraphs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := next.Do(context.Background(), SuggestRequest{Query: q, At: now, K: 8, SkipPersonalization: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if next.Generation() == 1 {
		t.Fatal("rebuild did not bump the generation")
	}
	if m := next.CompactCacheStats().Misses; m == missesBefore {
		t.Fatalf("rebuilt engine served query without a fresh compact build (misses still %d)", m)
	}

	// Ground truth: an engine built directly over the combined log.
	entries := append(append([]querylog.Entry{}, w.Log.Entries...), w2.Log.Entries...)
	combined := &querylog.Log{Entries: entries}
	fresh, err := NewEngine(combined, Config{
		Compact:             bipartite.CompactConfig{Budget: 60},
		SkipPersonalization: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Do(context.Background(), SuggestRequest{Query: q, At: now, K: 8, SkipPersonalization: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Diversified, want.Diversified) {
		t.Fatalf("post-swap diversified %v != fresh engine %v", got.Diversified, want.Diversified)
	}
}

// TestCompactCacheEviction bounds residency at the configured capacity.
func TestCompactCacheEviction(t *testing.T) {
	w := testWorld(t)
	e := testEngineCompactCache(t, w, 2)
	qs := cappedFrequentQueries(t, w, 4)
	if len(qs) < 3 {
		t.Skip("fixture has too few frequent queries")
	}
	now := time.Now()
	for _, q := range qs {
		if _, err := e.Do(context.Background(), SuggestRequest{Query: q, At: now, K: 8, SkipPersonalization: true, NoCache: true}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.CompactCacheStats()
	if st.Entries > 2 {
		t.Fatalf("cache holds %d entries, cap 2", st.Entries)
	}
	if st.Capacity != 2 {
		t.Fatalf("capacity = %d, want 2", st.Capacity)
	}
}
