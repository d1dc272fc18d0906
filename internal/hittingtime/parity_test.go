package hittingtime

import (
	"math"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/obs"
	"repro/internal/randomwalk"
	"repro/internal/sparse"
)

// TestFusedConstructionMatchesReference pins the fused one-pass walker
// construction against the reference pipeline built from the public
// sparse APIs (per-view two-step transitions, ScaleSym by the
// renormalized cross-view weight, Add): identical structure and values
// to 1e-12, plus bit-identical precomputed row sums and dangling mass
// versus the post-hoc RowSum/DanglingMass derivations they replaced.
func TestFusedConstructionMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"uniform", Config{}},
		{"skewed", Config{CrossView: [bipartite.NumViews]float64{3, 1, 2}}},
		{"single-view", Config{CrossView: [bipartite.NumViews]float64{0, 0, 1}}},
	}
	_, _, small := compactFixture(t)
	big := benchCompact(t)
	for _, fix := range []struct {
		name string
		c    *bipartite.Compact
	}{{"small", small}, {"big", big}} {
		per := refViewTransitions(fix.c)
		for _, tc := range cases {
			t.Run(fix.name+"/"+tc.name, func(t *testing.T) {
				want := seedNewWalker(per, tc.cfg)
				wk := NewWalker(fix.c, tc.cfg)
				got := wk.Transition()
				if !sparse.Equal(got, want, 1e-12) {
					t.Fatal("fused transition differs from reference pipeline")
				}
				for i := 0; i < got.Rows(); i++ {
					if rs := got.RowSum(i); wk.RowSums()[i] != rs {
						t.Fatalf("rowSum[%d] = %v, RowSum %v", i, wk.RowSums()[i], rs)
					}
				}
				dangling := randomwalk.DanglingMass(got)
				for i, d := range dangling {
					if wk.dangling[i] != d {
						t.Fatalf("dangling[%d] = %v, DanglingMass %v", i, wk.dangling[i], d)
					}
				}
			})
		}
	}
}

// TestSelectDiverseMatchesSeedGreedy pins the rewritten stage against
// the seed implementation end to end: the reference greedy loop (map
// membership, closure kernel, fresh vectors) over the reference
// transition must produce the exact selection the flat pooled kernel
// produces, on both fixtures.
func TestSelectDiverseMatchesSeedGreedy(t *testing.T) {
	_, _, small := compactFixture(t)
	for _, fix := range []struct {
		name string
		c    *bipartite.Compact
	}{{"small", small}, {"big", benchCompact(t)}} {
		t.Run(fix.name, func(t *testing.T) {
			wk := NewWalker(fix.c, Config{Tolerance: -1}) // seed has no early exit
			want := seedSelect(seedNewWalker(refViewTransitions(fix.c), Config{}), 10, 1, 10, []int{0})
			got := wk.SelectDiverse(1, 10, []int{0}, nil)
			if len(got) != len(want) {
				t.Fatalf("selected %d, seed selected %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("selection differs at %d: %v vs seed %v", i, got, want)
				}
			}
		})
	}
}

// TestSelectDiverseConcurrentPooledScratch hammers one walker from many
// goroutines (run under -race in CI): the package-level scratch pool
// must never bleed state between concurrent selections, so every result
// matches the sequential reference exactly.
func TestSelectDiverseConcurrentPooledScratch(t *testing.T) {
	c := benchCompact(t)
	wk := NewWalker(c, Config{})
	ref := wk.SelectDiverse(1, 8, []int{0}, nil)
	refH := wk.HittingTime(map[int]bool{1: true})
	const goroutines, rounds = 8, 5
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sel := wk.SelectDiverse(1, 8, []int{0}, nil)
				for i := range ref {
					if sel[i] != ref[i] {
						errs <- "selection diverged under concurrency"
						return
					}
				}
				h := wk.HittingTime(map[int]bool{1: true})
				for i := range refH {
					if h[i] != refH[i] {
						errs <- "hitting times diverged under concurrency"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// captureSink records the last observation per metric name.
type captureSink struct {
	mu   sync.Mutex
	last map[string]float64
}

func (s *captureSink) Observe(name string, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last == nil {
		s.last = map[string]float64{}
	}
	s.last[name] = v
}

// TestWalkStepsMetricCountsExecutedSweeps checks the telemetry
// contract: the walk-steps histogram receives the sweeps actually
// executed. With a deep truncation horizon and the default tolerance
// the early exit fires, so walkSteps must land strictly between rounds
// (≥ 1 sweep each) and rounds × l — and the early-exited selection must
// still match the fixed-l one.
func TestWalkStepsMetricCountsExecutedSweeps(t *testing.T) {
	c := benchCompact(t)
	const l = 2000
	fixed := NewWalker(c, Config{Iterations: l, Tolerance: -1}).SelectDiverse(1, 6, []int{0}, nil)

	sink := &captureSink{}
	ctx := obs.WithSink(t.Context(), sink)
	wk := NewWalker(c, Config{Iterations: l}) // default tolerance: early exit armed
	sel, err := wk.SelectDiverseCtx(ctx, 1, 6, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fixed {
		if sel[i] != fixed[i] {
			t.Fatalf("early-exited selection %v differs from fixed-l %v", sel, fixed)
		}
	}
	rounds := sink.last[obs.MetricHittingRounds]
	steps := sink.last[obs.MetricHittingWalkSteps]
	if rounds != 5 {
		t.Fatalf("rounds = %v, want 5 (k−1 greedy rounds)", rounds)
	}
	if steps < rounds || steps >= rounds*l {
		t.Fatalf("walkSteps = %v, want in [rounds, rounds*l) = [%v, %v)", steps, rounds, rounds*l)
	}
	if math.Mod(steps, 1) != 0 {
		t.Fatalf("walkSteps %v not integral", steps)
	}
}

// allRowsSelect is Algorithm 1's greedy loop over hitting times computed
// at every node (Rows nil), ranging over pool in order and then first —
// what SelectDiverse did before it told the kernel which rows it reads.
func allRowsSelect(wk *Walker, first, k int, excluded, pool []int) []int {
	n := wk.trans.Rows()
	inS, banned := make([]bool, n), make([]bool, n)
	for _, e := range excluded {
		banned[e] = true
	}
	candidates := append(append([]int(nil), pool...), first)
	selected := []int{first}
	inS[first] = true
	for len(selected) < k {
		h, _ := randomwalk.TruncatedHittingTimeFlat(wk.trans, inS, randomwalk.HittingTimeOpts{
			Steps: wk.cfg.Iterations, Tol: wk.cfg.Tolerance, Dangling: wk.dangling,
		})
		best, bestH := -1, -1.0
		for _, i := range candidates {
			if !inS[i] && !banned[i] && h[i] > bestH {
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

// TestSelectDiversePoolMatchesAllRows: restricting the last sweep of
// every round to the pool's rows leaves the selected list unchanged, at
// every truncation depth and tolerance the shortcut distinguishes, with
// duplicate pool entries and a first candidate outside the pool.
func TestSelectDiversePoolMatchesAllRows(t *testing.T) {
	_, _, small := compactFixture(t)
	for _, fix := range []struct {
		name string
		c    *bipartite.Compact
	}{{"small", small}, {"big", benchCompact(t)}} {
		n := fix.c.Size()
		var pool []int
		for i := 2; i < n && len(pool) < 30; i += 2 {
			pool = append(pool, i)
		}
		for _, tol := range []float64{-1, 1e-9, 1e-2} {
			for _, depth := range []int{1, 2, 10} {
				wk := NewWalker(fix.c, Config{Iterations: depth, Tolerance: tol})
				want := allRowsSelect(wk, 1, 10, []int{0}, pool)
				got := wk.SelectDiverse(1, 10, []int{0}, append(append([]int(nil), pool...), pool[0], -3, n))
				if len(got) != len(want) {
					t.Fatalf("%s tol %v depth %d: selected %v, all-rows %v", fix.name, tol, depth, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s tol %v depth %d: selected %v, all-rows %v", fix.name, tol, depth, got, want)
					}
				}
			}
		}
	}
}
