package regularize

import (
	"math"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/querylog"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// refNormalizedAffinity is L^X = D^{-1/2} (W Wᵀ) D^{-1/2} with D the
// diagonal of row sums of W Wᵀ (Eq. 13), one matrix per step.
func refNormalizedAffinity(w *sparse.Matrix) *sparse.Matrix {
	aff := sparse.MulMat(w, w.Transpose())
	d := make([]float64, aff.Rows())
	for i := range d {
		d[i] = aff.RowSum(i)
	}
	return aff.ScaleSym(func(i, j int) float64 {
		if d[i] == 0 || d[j] == 0 {
			return 0
		}
		return 1 / math.Sqrt(d[i]*d[j])
	})
}

// refSystem is the chain System replaced, kept as the oracle the fused
// build is held to: (1+Σα)I, then one Add of −α^X·L^X per view.
func refSystem(c *bipartite.Compact, alpha [bipartite.NumViews]float64) *sparse.Matrix {
	sumAlpha := 0.0
	for _, a := range alpha {
		sumAlpha += a
	}
	acc := sparse.ScaledIdentity(c.Size(), 1+sumAlpha)
	for v, a := range alpha {
		if a != 0 {
			acc = sparse.Add(acc, refNormalizedAffinity(c.W[v]), -a)
		}
	}
	return acc
}

func assertSystemIdentical(t *testing.T, c *bipartite.Compact, alpha [bipartite.NumViews]float64) {
	t.Helper()
	want := refSystem(c, alpha)
	got := System(c, Config{Alpha: alpha})
	if got.NNZ() != want.NNZ() || !sparse.Equal(got, want, 0) {
		t.Fatalf("α %v, n %d: fused system differs from the reference chain (nnz %d vs %d)",
			alpha, c.Size(), got.NNZ(), want.NNZ())
	}
}

// TestSystemMatchesReferenceChain is the bit-identity contract of the
// one-pass build: every stored entry equals the reference chain's, at
// tolerance zero, across compact sizes (one pooled scratch grows and
// shrinks between them), α vectors including a switched-off view, a
// clickless world whose URL bipartite has no columns, and compacts
// carrying queries with no edge in a view (zero-degree rows).
func TestSystemMatchesReferenceChain(t *testing.T) {
	alphas := [][bipartite.NumViews]float64{
		{0.1, 0.1, 0.1},
		{0.3, 0, 0.2},
		{0, 0, 0.5},
		{0.05, 0.7, 0.01},
	}
	w := synth.Generate(synth.Config{Seed: 11, NumFacets: 6, NumUsers: 15, SessionsPerUser: 10})
	rep := bipartite.Build(w.Log, querylog.SessionizerConfig{}, bipartite.CFIQF)

	clickless := &querylog.Log{}
	for _, e := range synth.Generate(synth.Config{Seed: 71, NumFacets: 4, NumUsers: 8, SessionsPerUser: 12}).Log.Entries {
		e.ClickedURL = ""
		clickless.Append(e)
	}
	bare := bipartite.Build(clickless, querylog.SessionizerConfig{}, bipartite.CFIQF)

	zeroDegree := false
	for _, r := range []*bipartite.Representation{rep, bare} {
		for q := 0; q < r.NumQueries(); q += 9 {
			for _, budget := range []int{200, 12, 40} {
				for _, alpha := range alphas {
					// A fresh compact per α: System memoizes per (compact, α).
					c := r.BuildCompact([]int{q, (q + 1) % r.NumQueries()}, bipartite.CompactConfig{Budget: budget})
					for v := 0; v < bipartite.NumViews; v++ {
						for i := 0; i < c.Size(); i++ {
							zeroDegree = zeroDegree || c.W[v].RowNNZ(i) == 0
						}
					}
					assertSystemIdentical(t, c, alpha)
				}
			}
		}
	}
	if !zeroDegree {
		t.Error("no compact had a zero-degree row; the fixture no longer covers that rule")
	}
}

// Concurrent first use on distinct compacts exercises the scratch pool
// under -race; each result must equal the reference.
func TestSystemConcurrentBuilds(t *testing.T) {
	w := synth.Generate(synth.Config{Seed: 11, NumFacets: 6, NumUsers: 15, SessionsPerUser: 10})
	rep := bipartite.Build(w.Log, querylog.SessionizerConfig{}, bipartite.CFIQF)
	alpha := [bipartite.NumViews]float64{0.1, 0.1, 0.1}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for q := g; q < rep.NumQueries(); q += 13 {
				c := rep.BuildCompact([]int{q}, bipartite.CompactConfig{Budget: 20 + 10*g})
				want := refSystem(c, alpha)
				if got := System(c, Config{Alpha: alpha}); !sparse.Equal(got, want, 0) {
					t.Errorf("query %d: concurrent system build differs from the reference", q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
