package randomwalk

import "repro/internal/sparse"

// TileLanes is the width of a hitting-time tile: the number of target
// sets TruncatedHittingTimeTile sweeps in lockstep over one transition
// matrix.
const TileLanes = 8

// TruncatedHittingTimeTile is TruncatedHittingTimeFlat for TileLanes
// target sets at once on the same matrix: each transition value and
// column index is loaded once per sweep and applied to all lanes, where
// TileLanes single-lane calls load it once each.
//
// Vectors are lane-major: inS[j][l] says whether node j is in lane l's
// target set, and the result holds lane l's hitting time of node j at
// h[j][l]. It aliases scratch, which stands in for opts.Scratch (unused
// here; nil allocates). Every lane gets, bit for bit, the values and the sweep count of
// TruncatedHittingTimeFlat on that lane's set: per lane the arithmetic
// is the single-lane kernel's, operation for operation, and the
// opts.Tol exit is taken per lane — a lane that converged after sweep t
// keeps its sweep-t values while the tile goes on for the others.
// opts.Rows lists the entries any lane's caller reads.
func TruncatedHittingTimeTile(trans *sparse.Matrix, inS [][TileLanes]bool, opts HittingTimeOpts, scratch *TileScratch) ([][TileLanes]float64, [TileLanes]int) {
	const L = TileLanes
	n := trans.Rows()
	if len(inS) != n {
		panic("randomwalk: inS length does not match matrix rows")
	}
	dangling := opts.Dangling
	if dangling == nil {
		dangling = DanglingMass(trans)
	}
	if scratch == nil {
		scratch = &TileScratch{}
	}
	scratch.resize(n)
	h, next := scratch.h, scratch.next
	clear(h)
	view := trans.View()
	var (
		iters   [L]int
		done    [L]bool
		maxDiff [L]float64
		running = L
	)
	for t := 0; t < opts.Steps && running > 0; t++ {
		maxDiff = [L]float64{}
		switch {
		case t == 0:
			firstSweepTile(inS, next, &maxDiff)
		case t == opts.Steps-1 && opts.Rows != nil:
			// Nothing reads maxDiff after the last sweep.
			for _, i := range opts.Rows {
				sweepTile(i, i+1, view, dangling, inS, h, next, &maxDiff)
			}
		default:
			sweepTile(0, n, view, dangling, inS, h, next, &maxDiff)
		}
		for l := 0; l < L; l++ {
			if done[l] {
				// Converged at an earlier sweep: carry those values forward.
				for j := range next {
					next[j][l] = h[j][l]
				}
				continue
			}
			iters[l] = t + 1
			if opts.Tol > 0 && maxDiff[l] <= opts.Tol {
				done[l] = true
				running--
			}
		}
		h, next = next, h
	}
	scratch.h, scratch.next = h, next
	return h, iters
}

// TileScratch is SweepScratch for tiles: the two ping-pong vectors of
// TruncatedHittingTimeTile, whose result aliases it. A zero TileScratch
// is ready to use.
type TileScratch struct {
	h, next [][TileLanes]float64
}

func (s *TileScratch) resize(n int) {
	if cap(s.h) < n {
		s.h = make([][TileLanes]float64, n)
		s.next = make([][TileLanes]float64, n)
		return
	}
	s.h = s.h[:n]
	s.next = s.next[:n]
}

// firstSweepTile is firstSweep per lane.
func firstSweepTile(inS [][TileLanes]bool, next [][TileLanes]float64, maxDiff *[TileLanes]float64) {
	for j := range inS {
		for l, in := range inS[j] {
			if in {
				next[j][l] = 0
			} else {
				next[j][l] = 1
				maxDiff[l] = 1
			}
		}
	}
}

// sweepTile is sweepRange over lane-major vectors. A row's dot products
// are taken in four passes, pass k over the nonzeros p ≡ k (mod 4) below
// len&^3 — lane l's pass-k sum is sweepRange's s_k chain, and pass 0
// goes on through the ≤ 3 tail entries as s0 does. One pass keeps its
// TileLanes running sums in registers; a single pass over the row would
// need 4 × TileLanes of them and spill (measured: slower than the
// single-lane kernel).
func sweepTile(lo, hi int, view sparse.CSRView, dangling []float64, inS [][TileLanes]bool, h, next [][TileLanes]float64, maxDiff *[TileLanes]float64) {
	const L = TileLanes
	rowPtr, colIdx, val := view.RowPtr, view.ColIdx, view.Val
	for i := lo; i < hi; i++ {
		start, end := rowPtr[i], rowPtr[i+1]
		cols, vals := colIdx[start:end], val[start:end]
		m := len(vals) &^ 3
		cols4, vals4 := cols[:m], vals[:m]
		a0, a1, a2, a3, a4, a5, a6, a7 := lanePass(cols4, vals4, h, 0)
		for p := m; p < len(vals); p++ {
			v, x := vals[p], &h[cols[p]]
			a0 += v * x[0]
			a1 += v * x[1]
			a2 += v * x[2]
			a3 += v * x[3]
			a4 += v * x[4]
			a5 += v * x[5]
			a6 += v * x[6]
			a7 += v * x[7]
		}
		b0, b1, b2, b3, b4, b5, b6, b7 := lanePass(cols4, vals4, h, 1)
		s01 := [L]float64{a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, a6 + b6, a7 + b7}
		a0, a1, a2, a3, a4, a5, a6, a7 = lanePass(cols4, vals4, h, 2)
		b0, b1, b2, b3, b4, b5, b6, b7 = lanePass(cols4, vals4, h, 3)
		s23 := [L]float64{a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, a6 + b6, a7 + b7}

		d := dangling[i]
		hi, ni, in := &h[i], &next[i], &inS[i]
		for l := 0; l < L; l++ {
			if in[l] {
				ni[l] = 0
				continue
			}
			s := 1.0 + (s01[l] + s23[l])
			if d != 0 {
				s += d * hi[l]
			}
			ni[l] = s
			diff := s - hi[l]
			if diff < 0 {
				diff = -diff
			}
			if diff > maxDiff[l] {
				maxDiff[l] = diff
			}
		}
	}
}

// lanePass returns, per lane, Σ vals[p]·h[cols[p]] over p = k, k+4, ….
func lanePass(cols []int, vals []float64, h [][TileLanes]float64, k uint) (a0, a1, a2, a3, a4, a5, a6, a7 float64) {
	cols = cols[:len(vals)]
	for p := k; p < uint(len(vals)); p += 4 {
		v, x := vals[p], &h[cols[p]]
		a0 += v * x[0]
		a1 += v * x[1]
		a2 += v * x[2]
		a3 += v * x[3]
		a4 += v * x[4]
		a5 += v * x[5]
		a6 += v * x[6]
		a7 += v * x[7]
	}
	return
}
