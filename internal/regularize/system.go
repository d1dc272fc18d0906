package regularize

import (
	"math"
	"slices"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/sparse"
)

// systemKey identifies one Eq. 15 coefficient matrix in a compact's
// derived-value memo: the system depends on the compact and the α
// vector only.
type systemKey struct {
	alpha [bipartite.NumViews]float64
}

// System materializes the Eq. 15 coefficient matrix
// (1+Σα)I − Σ α^X L^X on the compact representation, where
// L^X = D^{-1/2} (W Wᵀ) D^{-1/2} and D is the diagonal of row sums of
// W Wᵀ (Eq. 13; rows with zero sum stay zero, and L^X's eigenvalues lie
// in [−1, 1], which makes the system SPD). The matrix is a pure
// function of (compact, α), so it is memoized on the compact: repeated
// solves on a cached compact pay for the build exactly once.
func System(c *bipartite.Compact, cfg Config) *sparse.Matrix {
	cfg = cfg.withDefaults()
	return c.Derived(systemKey{alpha: cfg.Alpha}, func() any {
		sc := systemPool.Get().(*systemScratch)
		a := sc.build(c, cfg.Alpha)
		systemPool.Put(sc)
		return a
	}).(*sparse.Matrix)
}

// affinity is one view's W Wᵀ staged in CSR form, with its row sums.
type affinity struct {
	alpha  float64
	rowPtr []int
	colIdx []int
	val    []float64
	degree []float64
}

// systemScratch holds what a system build needs besides its result:
// the staged affinities, a dense row accumulator (all-zero between
// rows) and the merged rows before they are copied out at their exact
// size.
type systemScratch struct {
	views  [bipartite.NumViews]affinity
	acc    []float64
	colIdx []int
	val    []float64
}

var systemPool = sync.Pool{New: func() any { return new(systemScratch) }}

// build assembles the system in two passes where the textbook chain
// (Transpose → MulMat → RowSum → ScaleSym per view, then an Add per
// view onto (1+Σα)I) makes a dozen intermediate matrices and this keeps
// one, the transpose. It performs that chain's floating-point
// operations in that chain's order — products summed over objects
// ascending, degrees summed over columns ascending, each entry folded
// as acc + (−α)·(val·(1/√(d_i·d_j))) view by view — so the result
// equals the chain's bit for bit. The compact has at most ℚ queries, so
// a row's columns are recovered in order by scanning the accumulator
// instead of sorting.
func (sc *systemScratch) build(c *bipartite.Compact, alpha [bipartite.NumViews]float64) *sparse.Matrix {
	n := c.Size()
	if cap(sc.acc) < n {
		sc.acc = make([]float64, n)
	}
	acc := sc.acc[:n]

	sumAlpha := 0.0
	for _, a := range alpha {
		sumAlpha += a
	}
	staged := 0
	for v, a := range alpha {
		if a != 0 {
			sc.views[staged].stage(c.W[v], a, acc)
			staged++
		}
	}
	views := sc.views[:staged]

	rowPtr := make([]int, n+1)
	colIdx, val := sc.colIdx[:0], sc.val[:0]
	for i := 0; i < n; i++ {
		acc[i] = 1 + sumAlpha
		for k := range views {
			av := &views[k]
			di := av.degree[i]
			for p := av.rowPtr[i]; p < av.rowPtr[i+1]; p++ {
				j := av.colIdx[p]
				scale := 0.0
				if dj := av.degree[j]; di != 0 && dj != 0 {
					scale = 1 / math.Sqrt(di*dj)
				}
				acc[j] = acc[j] + -av.alpha*(av.val[p]*scale)
			}
		}
		colIdx, val = sparse.AppendNonzeros(acc, colIdx, val)
		rowPtr[i+1] = len(colIdx)
	}
	sc.colIdx, sc.val = colIdx, val
	return sparse.FromCSR(n, n, rowPtr, slices.Clone(colIdx), slices.Clone(val))
}

// stage computes W Wᵀ for one bipartite into av, row by row (Gustavson:
// each W[i,o] scatters row o of Wᵀ into acc), together with its row
// sums. acc must be all-zero and is left all-zero.
func (av *affinity) stage(wm *sparse.Matrix, alpha float64, acc []float64) {
	n := len(acc)
	w, wt := wm.View(), wm.Transpose().View()
	av.alpha = alpha
	if cap(av.rowPtr) < n+1 {
		av.rowPtr = make([]int, n+1)
		av.degree = make([]float64, n)
	}
	av.rowPtr, av.degree = av.rowPtr[:n+1], av.degree[:n]
	av.colIdx, av.val = av.colIdx[:0], av.val[:0]
	for i := 0; i < n; i++ {
		for p := w.RowPtr[i]; p < w.RowPtr[i+1]; p++ {
			a, o := w.Val[p], w.ColIdx[p]
			for q := wt.RowPtr[o]; q < wt.RowPtr[o+1]; q++ {
				acc[wt.ColIdx[q]] += a * wt.Val[q]
			}
		}
		from := len(av.val)
		av.colIdx, av.val = sparse.AppendNonzeros(acc, av.colIdx, av.val)
		d := 0.0
		for _, a := range av.val[from:] {
			d += a
		}
		av.degree[i] = d
		av.rowPtr[i+1] = len(av.colIdx)
	}
}
