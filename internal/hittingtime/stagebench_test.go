package hittingtime

import (
	"testing"

	"repro/internal/bipartite"
	"repro/internal/querylog"
	"repro/internal/randomwalk"
	"repro/internal/sparse"
	"repro/internal/synth"
)

func benchCompact(tb testing.TB) *bipartite.Compact {
	tb.Helper()
	w := synth.Generate(synth.Config{Seed: 1, NumUsers: 50, SessionsPerUser: 25})
	rep := bipartite.Build(w.Log, querylog.SessionizerConfig{}, bipartite.CFIQF)
	return rep.BuildCompact([]int{0}, bipartite.CompactConfig{Budget: 200})
}

// viewTransitions are the row-normalized two-step query→query
// transitions of a compact's three bipartites, one matrix each — the
// input of the reference walker construction. Computed once per
// fixture: the serving tree used to memoize them on the compact.
type viewTransitions [bipartite.NumViews]*sparse.Matrix

func refViewTransitions(c *bipartite.Compact) viewTransitions {
	var per viewTransitions
	for v := range per {
		per[v] = sparse.MulMat(c.W[v].RowNormalized(), c.W[v].Transpose().RowNormalized())
	}
	return per
}

// seedNewWalker replicates the pre-PR walker construction.
func seedNewWalker(per viewTransitions, cfg Config) *sparse.Matrix {
	cfg = cfg.withDefaults()
	n := per[0].Rows()
	avail := make([]float64, n)
	for i := 0; i < n; i++ {
		for v := 0; v < bipartite.NumViews; v++ {
			if per[v].RowNNZ(i) > 0 {
				avail[i] += cfg.CrossView[v]
			}
		}
	}
	var acc *sparse.Matrix
	for v := 0; v < bipartite.NumViews; v++ {
		w := cfg.CrossView[v]
		scaled := per[v].ScaleSym(func(i, j int) float64 {
			if avail[i] == 0 {
				return 0
			}
			return w / avail[i]
		})
		if acc == nil {
			acc = scaled
		} else {
			acc = sparse.Add(acc, scaled, 1)
		}
	}
	return acc
}

// seedSelect replicates the pre-PR greedy loop (map-based membership,
// closure kernel, per-round rowSum and allocations).
func seedSelect(trans *sparse.Matrix, l int, first, k int, excluded []int) []int {
	banned := make(map[int]bool, len(excluded))
	for _, e := range excluded {
		banned[e] = true
	}
	n := trans.Rows()
	selected := []int{first}
	inS := map[int]bool{first: true}
	for len(selected) < k {
		h := randomwalk.HittingTimeToSet(trans, inS, l)
		best, bestH := -1, -1.0
		for i := 0; i < n; i++ {
			if inS[i] || banned[i] {
				continue
			}
			if h[i] > bestH {
				best, bestH = i, h[i]
			}
		}
		if best < 0 {
			break
		}
		selected = append(selected, best)
		inS[best] = true
	}
	return selected
}

// BenchmarkHittingStageSeed is the full pre-PR hitting stage: walker
// construction through intermediate matrices plus the map/closure
// greedy selection.
func BenchmarkHittingStageSeed(b *testing.B) {
	per := refViewTransitions(benchCompact(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trans := seedNewWalker(per, Config{})
		seedSelect(trans, 10, 1, 10, []int{0})
	}
}

// BenchmarkHittingStage runs the rewritten stage (fused construction +
// flat kernel), early exit disabled so the sweep count matches the seed
// exactly.
func BenchmarkHittingStage(b *testing.B) {
	c := benchCompact(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewWalker(c, Config{Tolerance: -1})
		w.SelectDiverse(1, 10, []int{0}, nil)
	}
}

// BenchmarkNewWalker isolates walker construction.
func BenchmarkNewWalker(b *testing.B) {
	c := benchCompact(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewWalker(c, Config{})
	}
}

// BenchmarkNewWalkerSeed isolates the pre-PR construction.
func BenchmarkNewWalkerSeed(b *testing.B) {
	per := refViewTransitions(benchCompact(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seedNewWalker(per, Config{})
	}
}

// BenchmarkSelectDiverse isolates the greedy selection on a prepared
// walker.
func BenchmarkSelectDiverse(b *testing.B) {
	c := benchCompact(b)
	w := NewWalker(c, Config{Tolerance: -1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.SelectDiverse(1, 10, []int{0}, nil)
	}
}

// BenchmarkSelectDiverseSeed isolates the pre-PR selection on the same
// prepared transition.
func BenchmarkSelectDiverseSeed(b *testing.B) {
	c := benchCompact(b)
	w := NewWalker(c, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seedSelect(w.Transition(), 10, 1, 10, []int{0})
	}
}
