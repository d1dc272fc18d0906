package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/querylog"
	"repro/internal/regularize"
	"repro/internal/synth"
)

// batchQueries returns n distinct frequent queries for batch fixtures.
func batchQueries(t *testing.T, e *Engine, n int) []string {
	t.Helper()
	freq := e.Log().QueryFrequency()
	var out []string
	for q, c := range freq {
		if c >= 3 {
			out = append(out, q)
		}
	}
	if len(out) < n {
		t.Fatalf("only %d frequent queries, need %d", len(out), n)
	}
	return out[:n]
}

// TestDoBatchMatchesDo: batched answers must be identical to the
// single-request path, item by item.
func TestDoBatchMatchesDo(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)
	at := time.Now()
	queries := batchQueries(t, e, 6)

	reqs := make([]SuggestRequest, len(queries))
	for i, q := range queries {
		reqs[i] = SuggestRequest{User: w.Log.Entries[i].UserID, Query: q, At: at, K: 5}
	}
	results, errs := e.DoBatch(context.Background(), reqs)
	for i, req := range reqs {
		want, werr := e.Do(context.Background(), SuggestRequest{
			User: req.User, Query: req.Query, At: at, K: req.K, NoCache: true,
		})
		if (errs[i] == nil) != (werr == nil) {
			t.Fatalf("item %d: batch err %v, single err %v", i, errs[i], werr)
		}
		if errs[i] != nil {
			continue
		}
		if len(results[i].Suggestions) != len(want.Suggestions) {
			t.Fatalf("item %d: %d suggestions, want %d", i, len(results[i].Suggestions), len(want.Suggestions))
		}
		for j := range want.Suggestions {
			if results[i].Suggestions[j] != want.Suggestions[j] {
				t.Fatalf("item %d suggestion %d: %q, want %q", i, j, results[i].Suggestions[j], want.Suggestions[j])
			}
		}
		if results[i].SolveBatchSize < 1 {
			t.Errorf("item %d: SolveBatchSize = %d", i, results[i].SolveBatchSize)
		}
	}
}

// TestDoBatchMatchesDoAcrossLanes: one solve group whose lanes really
// differ. An explicit Regularize.Lambda makes the context age reach F⁰
// (at the zero value Eq. 7 weighs every age 1), so the lanes have
// different F*, first candidates and pool orders; K differs per lane and
// two lanes ask for other strategies. Group sizes sit on both sides of a
// tile: 8 = one tile, 9 = a tile and a single lane, 32 = what hot_batch
// sends. Every lane must answer exactly as its own Do.
func TestDoBatchMatchesDoAcrossLanes(t *testing.T) {
	w := testWorld(t)
	e, err := NewEngine(w.Log, Config{
		Compact:             bipartite.CompactConfig{Budget: 60},
		Regularize:          regularize.Config{Lambda: math.Ln2 / 60},
		SkipPersonalization: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := batchQueries(t, e, 2)
	q, cq := qs[0], qs[1]
	at := time.Now()
	for _, lanes := range []int{8, 9, 32} {
		reqs := make([]SuggestRequest, lanes)
		for i := range reqs {
			reqs[i] = SuggestRequest{
				Query:   q,
				Context: []querylog.Entry{{Query: cq, Time: at.Add(-time.Duration(i*i+1) * 7 * time.Second)}},
				At:      at,
				K:       []int{10, 5, 1, 2, 40, 7}[i%6],
				NoCache: true,
			}
		}
		reqs[2].Strategy = "mmr"
		reqs[lanes-2].Strategy = "relevance"
		results, errs := e.DoBatch(context.Background(), reqs)
		lists := map[string]bool{}
		for i, req := range reqs {
			want, werr := e.Do(context.Background(), req)
			if errs[i] != nil || werr != nil {
				t.Fatalf("%d lanes, lane %d: batch err %v, single err %v", lanes, i, errs[i], werr)
			}
			got := results[i]
			if !slices.Equal(got.Diversified, want.Diversified) || !slices.Equal(got.DiversifiedIDs, want.DiversifiedIDs) ||
				got.HittingRounds != want.HittingRounds || got.Strategy != want.Strategy {
				t.Fatalf("%d lanes, lane %d (k %d, %s): batch %v ids %v rounds %d, single %v ids %v rounds %d",
					lanes, i, req.K, got.Strategy, got.Diversified, got.DiversifiedIDs, got.HittingRounds,
					want.Diversified, want.DiversifiedIDs, want.HittingRounds)
			}
			if got.SolveBatchSize != lanes || got.HittingTime <= 0 {
				t.Errorf("%d lanes, lane %d: SolveBatchSize %d, HittingTime %v", lanes, i, got.SolveBatchSize, got.HittingTime)
			}
			if req.K >= 5 && req.Strategy == "" {
				lists[strings.Join(got.Diversified[:5], "|")] = true
			}
		}
		if len(lists) < 2 {
			t.Fatalf("%d lanes: every lane picked the same first five — the ages did not reach F⁰, the lanes do not differ", lanes)
		}
	}
}

// TestDoBatchSharesSolves: items differing only in context decay times
// (same query, same context queries) must share one blocked solve.
func TestDoBatchSharesSolves(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	qs := batchQueries(t, e, 2)
	q, cq := qs[0], qs[1]
	at := time.Now()

	reqs := make([]SuggestRequest, 4)
	for i := range reqs {
		reqs[i] = SuggestRequest{
			Query: q,
			// Same context query, different ages → different F⁰ but the
			// same seed set, so one multi-RHS solve serves all four.
			Context: []querylog.Entry{{Query: cq, Time: at.Add(-time.Duration(i+1) * 40 * time.Second)}},
			At:      at,
			K:       5,
			NoCache: true, // keep every item computing (no cache, no coalescing)
		}
	}
	before := e.SolveCount()
	results, errs := e.DoBatch(context.Background(), reqs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if results[i].SolveBatchSize != len(reqs) {
			t.Errorf("item %d: SolveBatchSize = %d, want %d", i, results[i].SolveBatchSize, len(reqs))
		}
	}
	if got := e.SolveCount() - before; got != 1 {
		t.Fatalf("batch ran %d solves, want 1", got)
	}
}

// TestDoBatchCoalescesDuplicates: identical cacheable items run the
// pipeline once and share the diversified list.
func TestDoBatchCoalescesDuplicates(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	e.EnableCache(64, 0)
	q := pickQuery(t, w)
	at := time.Now()

	reqs := make([]SuggestRequest, 5)
	for i := range reqs {
		reqs[i] = SuggestRequest{Query: q, At: at, K: 5}
	}
	before := e.SolveCount()
	results, errs := e.DoBatch(context.Background(), reqs)
	if got := e.SolveCount() - before; got != 1 {
		t.Fatalf("duplicate batch ran %d solves, want 1", got)
	}
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		if i > 0 {
			if !results[i].CacheHit {
				t.Errorf("item %d: duplicate not marked CacheHit", i)
			}
			if len(results[i].Suggestions) != len(results[0].Suggestions) {
				t.Errorf("item %d: %d suggestions, leader had %d", i, len(results[i].Suggestions), len(results[0].Suggestions))
			}
		}
	}
	// The leader's list must now be cached for follow-up requests.
	res, err := e.Do(context.Background(), SuggestRequest{Query: q, At: at, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Error("batch result was not cached")
	}
}

// TestDoBatchMixed: invalid items, unknown queries and cached-only
// misses fail individually without poisoning the rest of the batch.
func TestDoBatchMixed(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	e.EnableCache(64, 0)
	q := pickQuery(t, w)
	at := time.Now()

	reqs := []SuggestRequest{
		{Query: q, At: at, K: 5},
		{Query: q, At: at, K: 0},                                            // invalid k
		{Query: "zzz unseen query zzz qqq", At: at, K: 5},                   // unknown
		{Query: q, At: at, K: 5, Strategy: "no-such-strategy"},              // bad strategy
		{Query: "another unseen thing qqq", At: at, K: 5, CachedOnly: true}, // cached-only miss
	}
	results, errs := e.DoBatch(context.Background(), reqs)
	if errs[0] != nil {
		t.Fatalf("good item failed: %v", errs[0])
	}
	if len(results[0].Suggestions) == 0 {
		t.Fatal("good item got no suggestions")
	}
	if errs[1] == nil {
		t.Error("k=0 item did not fail")
	}
	if !errors.Is(errs[2], ErrUnknownQuery) {
		t.Errorf("unknown query: err = %v", errs[2])
	}
	if !errors.Is(errs[3], ErrUnknownStrategy) {
		t.Errorf("bad strategy: err = %v", errs[3])
	}
	if !errors.Is(errs[4], ErrNotCached) {
		t.Errorf("cached-only miss: err = %v", errs[4])
	}
}

// BenchmarkDoBatch32 is one 32-lane solve group on a cached compact —
// a hot_batch payload below the HTTP layer: same query, same context
// query, 32 context ages, k = 10, nothing served from the suggestion
// cache. SameF0 is what the serving benchmark sends today (at the zero
// Regularize.Lambda every age weighs 1, so the lanes solve the same
// F⁰); DistinctF0 sets Lambda so that they do not. The selection costs
// the same either way: no lane is skipped for agreeing with another.
// `make bench-guard` pins SameF0's allocs/op.
func BenchmarkDoBatch32(b *testing.B) {
	w := synth.Generate(synth.Config{Seed: 1, NumUsers: 50, SessionsPerUser: 25})
	for _, bc := range []struct {
		name   string
		lambda float64
	}{{"SameF0", 0}, {"DistinctF0", math.Ln2 / 60}} {
		b.Run(bc.name, func(b *testing.B) {
			e, err := NewEngine(w.Log, Config{
				Regularize:          regularize.Config{Lambda: bc.lambda},
				SkipPersonalization: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			q, cq := w.Log.Entries[0].Query, w.Log.Entries[1].Query
			at := time.Now()
			reqs := make([]SuggestRequest, 32)
			for i := range reqs {
				reqs[i] = SuggestRequest{
					Query:   q,
					Context: []querylog.Entry{{Query: cq, Time: at.Add(-time.Duration(i+1) * 15 * time.Second)}},
					At:      at,
					K:       10,
					NoCache: true,
				}
			}
			run := func() {
				results, errs := e.DoBatch(context.Background(), reqs)
				for i, err := range errs {
					if err != nil || len(results[i].Diversified) != 10 {
						b.Fatalf("lane %d: %v, %d suggestions", i, err, len(results[i].Diversified))
					}
				}
			}
			run() // fills the compact cache and its memoized derivations
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
