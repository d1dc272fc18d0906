package hittingtime

import (
	"context"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/randomwalk"
)

// Lane is one greedy selection on a shared walker: the arguments of
// SelectDiverseCtx.
type Lane struct {
	First, K       int
	Excluded, Pool []int
}

// SelectDiverseLanes runs SelectDiverseCtx for every lane and returns,
// lane by lane, exactly its selection and error. Lanes are taken eight
// at a time through the tile kernel, whose sweep loads each transition
// entry once for all eight; the lanes beyond the last full tile — and so
// every lone request — take the single-lane loop, which is faster per
// sweep when there is nobody to share the loads with.
func (w *Walker) SelectDiverseLanes(ctx context.Context, lanes []Lane) ([][]int, []error) {
	const L = randomwalk.TileLanes
	selected := make([][]int, len(lanes))
	errs := make([]error, len(lanes))
	full := len(lanes) &^ (L - 1)
	for at := 0; at < full; at += L {
		w.selectTile(ctx, lanes[at:at+L], selected[at:at+L], errs[at:at+L])
	}
	for i := full; i < len(lanes); i++ {
		ln := lanes[i]
		selected[i], errs[i] = w.SelectDiverseCtx(ctx, ln.First, ln.K, ln.Excluded, ln.Pool)
	}
	return selected, errs
}

// tileScratch is selectScratch for one tile: the kernel's vectors and
// the lanes' masks, lane-major, plus the union of the rows they read.
type tileScratch struct {
	sweep      randomwalk.TileScratch
	inS        [][randomwalk.TileLanes]bool
	banned     [][randomwalk.TileLanes]bool
	listed     [][randomwalk.TileLanes]bool // already in the lane's candidates
	candidates [randomwalk.TileLanes][]int
	rows       []int
	inRows     []bool
}

var tilePool = sync.Pool{New: func() any { return new(tileScratch) }}

func (sc *tileScratch) reset(n int) {
	if cap(sc.inS) < n {
		sc.inS = make([][randomwalk.TileLanes]bool, n)
		sc.banned = make([][randomwalk.TileLanes]bool, n)
		sc.listed = make([][randomwalk.TileLanes]bool, n)
		sc.inRows = make([]bool, n)
	}
	sc.inS = sc.inS[:n]
	sc.banned = sc.banned[:n]
	sc.listed = sc.listed[:n]
	sc.inRows = sc.inRows[:n]
	clear(sc.inS)
	clear(sc.banned)
	clear(sc.listed)
	clear(sc.inRows)
	for l := range sc.candidates {
		sc.candidates[l] = sc.candidates[l][:0]
	}
	sc.rows = sc.rows[:0]
}

// selectTile is SelectDiverseCtx's greedy loop for TileLanes lanes in
// lockstep: one tile sweep per round scores every lane's candidates
// against that lane's own selected set. A lane that has its K picks, or
// no candidate left, is finished; its column rides along unread until
// the last lane finishes.
func (w *Walker) selectTile(ctx context.Context, lanes []Lane, selected [][]int, errs []error) {
	const L = randomwalk.TileLanes
	n := w.trans.Rows()
	sp := obs.StartSpan(ctx, "greedy_select")
	sc := tilePool.Get().(*tileScratch)
	defer tilePool.Put(sc)
	sc.reset(n)

	var (
		rounds, walkSteps [L]int
		live              [L]bool
		nLive             int
		allRows           bool
	)
	for l, ln := range lanes {
		if ln.K <= 0 || ln.First < 0 || ln.First >= n {
			continue // SelectDiverseCtx's nil, nil: selected[l] stays nil
		}
		for _, e := range ln.Excluded {
			if e >= 0 && e < n {
				sc.banned[e][l] = true
			}
		}
		cand := sc.candidates[l]
		if ln.Pool != nil {
			for _, p := range ln.Pool {
				if p >= 0 && p < n && !sc.listed[p][l] {
					sc.listed[p][l] = true
					cand = append(cand, p)
				}
			}
			if !sc.listed[ln.First][l] {
				cand = append(cand, ln.First)
			}
			for _, i := range cand {
				if !sc.inRows[i] {
					sc.inRows[i] = true
					sc.rows = append(sc.rows, i)
				}
			}
		} else {
			for i := 0; i < n; i++ {
				cand = append(cand, i)
			}
			allRows = true
		}
		sc.candidates[l] = cand
		selected[l] = append(make([]int, 0, min(ln.K, len(cand)+1)), ln.First)
		sc.inS[ln.First][l] = true
		if ln.K > 1 {
			live[l] = true
			nLive++
		}
	}
	// The kernel computes, in its last sweep, only the rows some lane
	// reads: the union of the candidate lists, or every row as soon as
	// one lane's candidacy is unrestricted.
	opts := randomwalk.HittingTimeOpts{
		Steps:    w.cfg.Iterations,
		Tol:      w.cfg.Tolerance,
		Dangling: w.dangling,
		Rows:     sc.rows,
	}
	if allRows {
		opts.Rows = nil
	}
	var err error
	for nLive > 0 {
		if err = ctx.Err(); err != nil {
			for l := range lanes {
				if live[l] {
					errs[l] = err
				}
			}
			break
		}
		h, iters := randomwalk.TruncatedHittingTimeTile(w.trans, sc.inS, opts, &sc.sweep)
		for l := range lanes {
			if !live[l] {
				continue
			}
			rounds[l]++
			walkSteps[l] += iters[l]
			best, bestH := -1, -1.0
			for _, i := range sc.candidates[l] {
				if sc.inS[i][l] || sc.banned[i][l] {
					continue
				}
				if h[i][l] > bestH { // ties resolve to the first candidate listed
					best, bestH = i, h[i][l]
				}
			}
			if best >= 0 {
				selected[l] = append(selected[l], best)
				sc.inS[best][l] = true
			}
			if best < 0 || len(selected[l]) >= lanes[l].K {
				live[l] = false
				nLive--
			}
		}
	}

	for l := range lanes {
		if selected[l] != nil {
			obs.Observe(ctx, obs.MetricHittingRounds, float64(rounds[l]))
			obs.Observe(ctx, obs.MetricHittingWalkSteps, float64(walkSteps[l]))
		}
	}
	if sp != nil {
		sp.SetAttr("lanes", L)
		sp.SetAttr("rounds", slices.Max(rounds[:]))
		sp.SetAttr("walkDepth", w.cfg.Iterations)
		sp.SetAttr("cancelled", err != nil)
		sp.End()
	}
}
