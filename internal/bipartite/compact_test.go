package bipartite

import (
	"math"
	"sync"
	"testing"

	"repro/internal/querylog"
	"repro/internal/synth"
)

func synthRep(t *testing.T, wt Weighting) *Representation {
	t.Helper()
	w := synth.Generate(synth.Config{Seed: 5, NumFacets: 6, NumUsers: 12, SessionsPerUser: 10})
	return Build(w.Log, querylog.SessionizerConfig{}, wt)
}

func TestBuildCompactBudget(t *testing.T) {
	r := synthRep(t, CFIQF)
	sun := 0 // any query id works as seed
	c := r.BuildCompact([]int{sun}, CompactConfig{Budget: 30})
	if c.Size() > 30 {
		t.Fatalf("compact size %d exceeds budget", c.Size())
	}
	if c.Size() < 2 {
		t.Fatalf("compact did not expand beyond the seed (size %d)", c.Size())
	}
	if c.QueryIDs[0] != sun {
		t.Error("seed is not first")
	}
	// LocalOf inverts QueryIDs.
	for local, q := range c.QueryIDs {
		if c.LocalOf[q] != local {
			t.Fatalf("LocalOf[%d] = %d, want %d", q, c.LocalOf[q], local)
		}
	}
}

func TestBuildCompactSeedsFirst(t *testing.T) {
	r := synthRep(t, Raw)
	seeds := []int{3, 1, 4}
	c := r.BuildCompact(seeds, CompactConfig{Budget: 20})
	for i, s := range seeds {
		if c.QueryIDs[i] != s {
			t.Errorf("seed %d at position %d, want %d", c.QueryIDs[i], i, s)
		}
	}
}

func TestBuildCompactIgnoresBadSeeds(t *testing.T) {
	r := synthRep(t, Raw)
	c := r.BuildCompact([]int{0, 0, -5, 999999}, CompactConfig{Budget: 10})
	if c.Size() == 0 || c.QueryIDs[0] != 0 {
		t.Fatalf("compact = %v", c.QueryIDs)
	}
	seen := make(map[int]bool)
	for _, q := range c.QueryIDs {
		if seen[q] {
			t.Fatal("duplicate query in compact")
		}
		seen[q] = true
	}
}

func TestCompactInducedEdgesMatchFull(t *testing.T) {
	r := synthRep(t, CFIQF)
	c := r.BuildCompact([]int{2}, CompactConfig{Budget: 15})
	// Every compact row's total weight equals the full row's total (all
	// objects of a selected query are kept).
	for v := 0; v < NumViews; v++ {
		for lq, q := range c.QueryIDs {
			want := r.W[v].RowSum(q)
			got := c.W[v].RowSum(lq)
			if math.Abs(want-got) > 1e-9 {
				t.Fatalf("view %v query %d: compact row sum %v != full %v", View(v), q, got, want)
			}
		}
	}
}

func TestCompactExpansionPrefersNeighbors(t *testing.T) {
	// The expansion should pull in queries from the seed's facet before
	// unrelated ones: check that at least one direct neighbor (shares a
	// session/term/URL) of the seed is included.
	r := synthRep(t, CFIQF)
	seed := 0
	c := r.BuildCompact([]int{seed}, CompactConfig{Budget: 8})
	avg := refAverageTransition(r)
	neighbors := make(map[int]bool)
	avg.Row(seed, func(cc int, v float64) {
		if v > 0 && cc != seed {
			neighbors[cc] = true
		}
	})
	if len(neighbors) == 0 {
		t.Skip("seed has no neighbors in this synthetic log")
	}
	found := false
	for _, q := range c.QueryIDs[1:] {
		if neighbors[q] {
			found = true
			break
		}
	}
	if !found {
		t.Error("compact contains no direct neighbor of the seed")
	}
}

func TestCompactQueryNameRoundTrip(t *testing.T) {
	r := synthRep(t, Raw)
	c := r.BuildCompact([]int{0, 1}, CompactConfig{Budget: 10})
	for i := range c.QueryIDs {
		if c.QueryName(i) != r.Queries.Name(c.QueryIDs[i]) {
			t.Fatal("QueryName mismatch")
		}
	}
}

func TestCompactEmptySeeds(t *testing.T) {
	r := synthRep(t, Raw)
	c := r.BuildCompact(nil, CompactConfig{Budget: 10})
	if c.Size() != 0 {
		t.Fatalf("empty seeds produced %d queries", c.Size())
	}
}

// TestCompactDerivedMemo pins the derived-value memo contract: one
// build per key, shared result, distinct keys distinct builds, safe
// under concurrent first use.
func TestCompactDerivedMemo(t *testing.T) {
	r := synthRep(t, CFIQF)
	c := r.BuildCompact([]int{0}, CompactConfig{Budget: 20})

	type keyA struct{ x int }
	builds := 0
	build := func() any { builds++; return &struct{ n int }{builds} }
	v1 := c.Derived(keyA{1}, build)
	v2 := c.Derived(keyA{1}, build)
	if v1 != v2 {
		t.Fatal("same key returned distinct values")
	}
	if builds != 1 {
		t.Fatalf("build ran %d times for one key", builds)
	}
	if v3 := c.Derived(keyA{2}, build); v3 == v1 {
		t.Fatal("distinct keys shared a value")
	}
	if builds != 2 {
		t.Fatalf("build ran %d times for two keys", builds)
	}

	// Concurrent first use of a fresh key: exactly one build wins and
	// every goroutine sees it.
	c2 := r.BuildCompact([]int{1}, CompactConfig{Budget: 20})
	var wg sync.WaitGroup
	got := make([]any, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c2.Derived(keyA{7}, func() any { return new(int) })
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent Derived returned distinct values")
		}
	}
}
