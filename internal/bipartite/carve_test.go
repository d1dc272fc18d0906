package bipartite

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/querylog"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// assertCarveIdentical holds BuildCompact to the reference carve
// exactly: same queries in the same order, same inverse map, and the
// three induced bipartites equal entry for entry at tolerance zero.
func assertCarveIdentical(t *testing.T, r *Representation, trans *sparse.Matrix, seeds []int, cfg CompactConfig) {
	t.Helper()
	want := refBuildCompact(r, trans, seeds, cfg)
	got := r.BuildCompact(seeds, cfg)
	if len(got.QueryIDs) != len(want.QueryIDs) {
		t.Fatalf("seeds %v budget %d: carved %d queries, reference %d", seeds, cfg.Budget, len(got.QueryIDs), len(want.QueryIDs))
	}
	for i, q := range want.QueryIDs {
		if got.QueryIDs[i] != q {
			t.Fatalf("seeds %v budget %d: QueryIDs[%d] = %d, reference %d", seeds, cfg.Budget, i, got.QueryIDs[i], q)
		}
	}
	if len(got.LocalOf) != len(want.LocalOf) {
		t.Fatalf("seeds %v: LocalOf has %d entries, reference %d", seeds, len(got.LocalOf), len(want.LocalOf))
	}
	for q, local := range want.LocalOf {
		if l, ok := got.LocalOf[q]; !ok || l != local {
			t.Fatalf("seeds %v: LocalOf[%d] = %d (%v), reference %d", seeds, q, l, ok, local)
		}
	}
	for v := 0; v < NumViews; v++ {
		if len(want.QueryIDs) == 0 {
			if got.W[v] != nil {
				t.Fatalf("empty carve induced a %v matrix", View(v))
			}
			continue
		}
		if got.W[v].NNZ() != want.W[v].NNZ() || !sparse.Equal(got.W[v], want.W[v], 0) {
			t.Fatalf("seeds %v budget %d: induced %v bipartite differs from reference", seeds, cfg.Budget, View(v))
		}
	}
}

// carveCases sweeps the seed shapes the engine produces — one seed,
// seed plus context, more seeds than budget, duplicates and unknown
// IDs — over every 7th query, at a budget the walk fills, one it
// cannot (larger than anything reachable) and the default.
func carveCases(t *testing.T, r *Representation) {
	t.Helper()
	trans := refAverageTransition(r)
	n := r.NumQueries()
	for q := 0; q < n; q += 7 {
		other := (q*31 + 5) % n
		for _, cfg := range []CompactConfig{{Budget: 25}, {Budget: 3, WalkSteps: 2}, {Budget: n + 10}, {}} {
			assertCarveIdentical(t, r, trans, []int{q}, cfg)
			assertCarveIdentical(t, r, trans, []int{q, other}, cfg)
			assertCarveIdentical(t, r, trans, []int{q, q, -4, other, n, n + 99, q}, cfg)
		}
		assertCarveIdentical(t, r, trans, []int{q, other, (q + 1) % n, (q + 2) % n, (q + 3) % n}, CompactConfig{Budget: 4})
	}
	assertCarveIdentical(t, r, trans, nil, CompactConfig{})
	assertCarveIdentical(t, r, trans, []int{-1, n}, CompactConfig{})
}

func TestBuildCompactMatchesReference(t *testing.T) {
	w := synth.Generate(synth.Config{Seed: 3, NumFacets: 8, NumUsers: 60, SessionsPerUser: 12})
	for _, wt := range []Weighting{CFIQF, Raw} {
		carveCases(t, Build(w.Log, querylog.SessionizerConfig{}, wt))
	}
}

// The seed-71 world with every click stripped: the URL view is empty
// and a few queries are isolated in the other two, so seeds with no
// neighbour at all and views with zero columns go through the carve.
func TestBuildCompactMatchesReferenceClickless(t *testing.T) {
	w := synth.Generate(synth.Config{Seed: 71, NumFacets: 4, NumUsers: 8, SessionsPerUser: 12})
	stripped := &querylog.Log{}
	for _, e := range w.Log.Entries {
		e.ClickedURL = ""
		stripped.Append(e)
	}
	carveCases(t, Build(stripped, querylog.SessionizerConfig{}, CFIQF))
}

// Representations of different sizes alternate through one pooled
// scratch: a delta build grows the query space and every view's column
// count, then the smaller base is carved again with the grown arrays.
func TestBuildCompactMatchesReferenceAcrossDeltaBuild(t *testing.T) {
	start := ts("2013-01-07 09:00:00")
	rng := rand.New(rand.NewSource(17))
	base := randomLog(rng, 300, 12, start)
	fresh := randomLog(rng, 80, 20, start.Add(60*time.Hour))
	fresh = append(fresh,
		querylog.Entry{UserID: "brandnew", Query: "quantum computing", ClickedURL: "qc.example.com", Time: start.Add(100 * time.Hour)},
		querylog.Entry{UserID: "brandnew", Query: "quantum computing basics", Time: start.Add(100*time.Hour + time.Minute)},
	)
	small := BuildFromSessions(querylog.Sessionize(&querylog.Log{Entries: append([]querylog.Entry(nil), base...)}, querylog.SessionizerConfig{}), CFIQF)
	grown := buildDelta(t, base, fresh, CFIQF)
	if grown.NumQueries() <= small.NumQueries() {
		t.Fatalf("delta build did not grow the query space (%d → %d)", small.NumQueries(), grown.NumQueries())
	}
	for _, r := range []*Representation{small, grown, small} {
		carveCases(t, r)
	}
}

// Concurrent carves on one representation share the lazily built walk
// factors and the scratch pool; every result must equal the sequential
// one (run under -race in CI).
func TestBuildCompactConcurrent(t *testing.T) {
	r := synthRep(t, CFIQF)
	n := r.NumQueries()
	want := make([]*Compact, 16)
	fresh := synthRep(t, CFIQF) // its factors are built inside the race below
	for i := range want {
		want[i] = r.BuildCompact([]int{i * 3 % n}, CompactConfig{Budget: 30})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, w := range want {
				got := fresh.BuildCompact([]int{i * 3 % n}, CompactConfig{Budget: 30})
				if len(got.QueryIDs) != len(w.QueryIDs) {
					t.Errorf("carve %d: %d queries, want %d", i, len(got.QueryIDs), len(w.QueryIDs))
					return
				}
				for j := range w.QueryIDs {
					if got.QueryIDs[j] != w.QueryIDs[j] {
						t.Errorf("carve %d diverged under concurrency at %d", i, j)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
