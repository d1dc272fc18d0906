package hittingtime

import (
	"math"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/querylog"
	"repro/internal/synth"
)

func compactFixture(t *testing.T) (*synth.World, *bipartite.Representation, *bipartite.Compact) {
	t.Helper()
	w := synth.Generate(synth.Config{Seed: 17, NumFacets: 6, NumUsers: 15, SessionsPerUser: 10})
	rep := bipartite.Build(w.Log, querylog.SessionizerConfig{}, bipartite.CFIQF)
	c := rep.BuildCompact([]int{0}, bipartite.CompactConfig{Budget: 40})
	return w, rep, c
}

func TestWalkerTransitionStochastic(t *testing.T) {
	_, _, c := compactFixture(t)
	wk := NewWalker(c, Config{})
	tr := wk.Transition()
	if tr.Rows() != c.Size() {
		t.Fatalf("transition rows %d != %d", tr.Rows(), c.Size())
	}
	for i := 0; i < tr.Rows(); i++ {
		s := tr.RowSum(i)
		if s != 0 && math.Abs(s-1) > 1e-9 {
			t.Errorf("row %d sums to %v", i, s)
		}
	}
}

func TestWalkerCrossViewWeights(t *testing.T) {
	_, _, c := compactFixture(t)
	// Degenerate teleport: everything through the term view only.
	only := Config{CrossView: [bipartite.NumViews]float64{0, 0, 1}}
	wk := NewWalker(c, only)
	term := refViewTransitions(c)[bipartite.ViewTerm]
	tr := wk.Transition()
	for i := 0; i < tr.Rows(); i++ {
		if term.RowNNZ(i) == 0 {
			// With zero weight on available views, mass renormalizes to
			// the views with edges — here only term view counts, so the
			// row must be empty.
			if tr.RowNNZ(i) != 0 {
				t.Errorf("row %d should be empty", i)
			}
			continue
		}
		term.Row(i, func(j int, v float64) {
			if math.Abs(tr.At(i, j)-v) > 1e-9 {
				t.Errorf("(%d,%d): %v != %v", i, j, tr.At(i, j), v)
			}
		})
	}
}

func TestHittingTimeZeroOnSelected(t *testing.T) {
	_, _, c := compactFixture(t)
	wk := NewWalker(c, Config{})
	h := wk.HittingTime(map[int]bool{0: true, 3: true})
	if h[0] != 0 || h[3] != 0 {
		t.Errorf("h on S = %v, %v; want 0", h[0], h[3])
	}
	for i, v := range h {
		if i != 0 && i != 3 && v < 1 {
			t.Errorf("h[%d] = %v < 1 off S", i, v)
		}
	}
}

func TestSelectDiverseBasics(t *testing.T) {
	_, _, c := compactFixture(t)
	wk := NewWalker(c, Config{})
	k := 5
	sel := wk.SelectDiverse(1, k, []int{0}, nil)
	if len(sel) != k {
		t.Fatalf("selected %d, want %d", len(sel), k)
	}
	if sel[0] != 1 {
		t.Error("first candidate not preserved")
	}
	seen := make(map[int]bool)
	for _, s := range sel {
		if seen[s] {
			t.Fatal("duplicate selection")
		}
		if s == 0 {
			t.Fatal("excluded query selected")
		}
		seen[s] = true
	}
}

func TestSelectDiverseBudgetExhaustion(t *testing.T) {
	_, _, c := compactFixture(t)
	wk := NewWalker(c, Config{})
	// Ask for more than exist: should stop at the available count.
	sel := wk.SelectDiverse(1, c.Size()+10, []int{0}, nil)
	if len(sel) > c.Size()-1 {
		t.Fatalf("selected %d out of %d possible", len(sel), c.Size()-1)
	}
}

func TestSelectDiverseInvalidArgs(t *testing.T) {
	_, _, c := compactFixture(t)
	wk := NewWalker(c, Config{})
	if got := wk.SelectDiverse(-1, 3, nil, nil); got != nil {
		t.Errorf("negative first gave %v", got)
	}
	if got := wk.SelectDiverse(0, 0, nil, nil); got != nil {
		t.Errorf("k=0 gave %v", got)
	}
}

func TestSelectDiverseSpreadsAcrossFacets(t *testing.T) {
	// The greedy max-hitting-time rule should cover more facets than a
	// pure relevance ranking around one facet. We check it reaches at
	// least 2 distinct facets among 6 when the compact holds several.
	w, rep, c := compactFixture(t)
	facetsInCompact := make(map[int]bool)
	for _, q := range c.QueryIDs {
		if f := w.QueryFacet(rep.Queries.Name(q)); f >= 0 {
			facetsInCompact[f] = true
		}
	}
	if len(facetsInCompact) < 2 {
		t.Skip("compact covers a single facet; nothing to diversify")
	}
	wk := NewWalker(c, Config{})
	sel := wk.SelectDiverse(1, 6, []int{0}, nil)
	got := make(map[int]bool)
	for _, s := range sel {
		if f := w.QueryFacet(c.QueryName(s)); f >= 0 {
			got[f] = true
		}
	}
	if len(got) < 2 {
		t.Errorf("diversified selection covers %d facet(s), want ≥ 2 (compact had %d)", len(got), len(facetsInCompact))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Iterations != 10 {
		t.Errorf("Iterations = %d", c.Iterations)
	}
	sum := 0.0
	for _, w := range c.CrossView {
		sum += w
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("CrossView sums to %v", sum)
	}
	// Custom weights are normalized.
	c2 := Config{CrossView: [bipartite.NumViews]float64{2, 2, 4}}.withDefaults()
	if math.Abs(c2.CrossView[2]-0.5) > 1e-12 {
		t.Errorf("normalized CrossView = %v", c2.CrossView)
	}
}

// TestWalkerForMemoized pins the walker memo: repeated WalkerFor calls
// on one compact share an instance, a different config builds its own,
// and the memoized walker selects exactly what a fresh NewWalker does.
func TestWalkerForMemoized(t *testing.T) {
	_, _, c := compactFixture(t)
	cfg := Config{Iterations: 8}
	w1 := WalkerFor(c, cfg)
	if w2 := WalkerFor(c, cfg); w2 != w1 {
		t.Fatal("same config rebuilt the walker")
	}
	if w3 := WalkerFor(c, Config{Iterations: 3}); w3 == w1 {
		t.Fatal("different config shared a walker")
	}

	fresh := NewWalker(c, cfg)
	pool := make([]int, c.Size())
	for i := range pool {
		pool[i] = i
	}
	got := w1.SelectDiverse(0, 5, nil, pool)
	want := fresh.SelectDiverse(0, 5, nil, pool)
	if len(got) != len(want) {
		t.Fatalf("selected %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("selected %v, want %v", got, want)
		}
	}
}
