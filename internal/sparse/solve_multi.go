package sparse

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/obs"
)

// This file holds the batched multi-RHS CG solver. A k-item suggest
// batch whose items share a compact representation shares the Eq. 15
// coefficient matrix and differs only in the right-hand side, so the k
// solves can run as ONE blocked sweep: every CG iteration does a single
// shared SpMM over the CSR structure (one pass over rowPtr/colIdx/val
// feeding k accumulator lanes) instead of k independent SpMVs that each
// re-stream the matrix. Vectors are packed lane-major — lane j of
// logical vector v lives at v[i*k+j] — so the k lanes of one row are
// contiguous and the matrix entry loaded once serves all of them.
//
// Each lane keeps its own CG scalars (rz, alpha, beta) and residual and
// converges independently: a converged (or broken-down) lane is
// swap-removed to the tail of the block and the active width m shrinks,
// so finished columns stop contributing inner-loop work while the
// stragglers iterate on. Per lane, the arithmetic sequence is exactly
// solveCG's — same Jacobi preconditioner, same update order, dots
// accumulated ascending — so results are bit-identical to SolveCG
// column by column (asserted by TestSolveCGMultiBitIdentical).

// laneResult is one lane's convergence outcome, indexed by original
// right-hand-side position.
type laneResult struct {
	iters     int
	rel       float64
	converged bool
}

// blockScratch holds one blocked solve's packed work vectors (pooled).
// The five n×k blocks mirror cgScratch's five n-vectors; the k-length
// arrays are per-lane scalars.
type blockScratch struct {
	minv           []float64 // n: shared Jacobi preconditioner
	x, r, z, p, ap []float64 // n·k packed blocks

	nb, rz, rel, pap, alpha []float64 // k per-lane scalars
	lane                    []int     // block position → original RHS index
	res                     []laneResult
}

var multiPool64 = sync.Pool{New: func() any { return new(blockScratch) }}

func (sc *blockScratch) resize(n, k int) {
	nk := n * k
	if cap(sc.x) < nk {
		sc.x = make([]float64, nk)
		sc.r = make([]float64, nk)
		sc.z = make([]float64, nk)
		sc.p = make([]float64, nk)
		sc.ap = make([]float64, nk)
	} else {
		sc.x = sc.x[:nk]
		sc.r = sc.r[:nk]
		sc.z = sc.z[:nk]
		sc.p = sc.p[:nk]
		sc.ap = sc.ap[:nk]
	}
	if cap(sc.minv) < n {
		sc.minv = make([]float64, n)
	} else {
		sc.minv = sc.minv[:n]
	}
	if cap(sc.nb) < k {
		sc.nb = make([]float64, k)
		sc.rz = make([]float64, k)
		sc.rel = make([]float64, k)
		sc.pap = make([]float64, k)
		sc.alpha = make([]float64, k)
		sc.lane = make([]int, k)
		sc.res = make([]laneResult, k)
	} else {
		sc.nb = sc.nb[:k]
		sc.rz = sc.rz[:k]
		sc.rel = sc.rel[:k]
		sc.pap = sc.pap[:k]
		sc.alpha = sc.alpha[:k]
		sc.lane = sc.lane[:k]
		sc.res = sc.res[:k]
	}
}

// swap exchanges lanes j1 and j2 across every packed block and per-lane
// scalar. O(n) — paid once per lane retirement, not per iteration.
func (sc *blockScratch) swap(j1, j2, n, k int) {
	if j1 == j2 {
		return
	}
	for i := 0; i < n; i++ {
		base := i * k
		sc.x[base+j1], sc.x[base+j2] = sc.x[base+j2], sc.x[base+j1]
		sc.r[base+j1], sc.r[base+j2] = sc.r[base+j2], sc.r[base+j1]
		sc.z[base+j1], sc.z[base+j2] = sc.z[base+j2], sc.z[base+j1]
		sc.p[base+j1], sc.p[base+j2] = sc.p[base+j2], sc.p[base+j1]
		sc.ap[base+j1], sc.ap[base+j2] = sc.ap[base+j2], sc.ap[base+j1]
	}
	sc.nb[j1], sc.nb[j2] = sc.nb[j2], sc.nb[j1]
	sc.rz[j1], sc.rz[j2] = sc.rz[j2], sc.rz[j1]
	sc.rel[j1], sc.rel[j2] = sc.rel[j2], sc.rel[j1]
	sc.pap[j1], sc.pap[j2] = sc.pap[j2], sc.pap[j1]
	sc.alpha[j1], sc.alpha[j2] = sc.alpha[j2], sc.alpha[j1]
	sc.lane[j1], sc.lane[j2] = sc.lane[j2], sc.lane[j1]
	sc.res[j1], sc.res[j2] = sc.res[j2], sc.res[j1]
}

// SolveCGMulti solves A·x_j = b_j for all right-hand sides in one
// blocked CG sweep (see the file comment). dst, when it has the right
// shape (len(b) slices of length n), receives the solutions in place —
// the steady-state path then allocates only the returned stats slice,
// independent of the RHS count. Pass nil to have it allocated.
//
// The returned error is nil when every lane converged; ErrNoConvergence
// when any lane missed the tolerance within the iteration budget (see
// the per-lane SolveStats for which); or the context error on
// cancellation, with each lane holding its best iterate so far.
func SolveCGMulti(a *Matrix, b, dst [][]float64, opts SolveOptions) ([][]float64, []SolveStats, error) {
	return SolveCGMultiCtx(context.Background(), a, b, dst, opts)
}

// SolveCGMultiCtx is SolveCGMulti with request-scoped cancellation and
// observability (a "cg_solve_multi" span; per-lane iteration/residual
// histogram samples, matching what k independent SolveCG calls would
// have recorded).
func SolveCGMultiCtx(ctx context.Context, a *Matrix, b, dst [][]float64, opts SolveOptions) ([][]float64, []SolveStats, error) {
	n := a.Rows()
	if a.Cols() != n {
		panic(fmt.Sprintf("sparse: SolveCGMulti needs a square matrix, got %dx%d", a.Rows(), a.Cols()))
	}
	k := len(b)
	for j, bj := range b {
		if len(bj) != n {
			panic(fmt.Sprintf("sparse: SolveCGMulti rhs %d length %d != %d", j, len(bj), n))
		}
	}
	if len(dst) != k {
		dst = make([][]float64, k)
	}
	for j := range dst {
		if len(dst[j]) != n {
			dst[j] = make([]float64, n)
		}
	}
	stats := make([]SolveStats, k)
	if k == 0 {
		return dst, stats, nil
	}
	opts = opts.withDefaults(n)

	sp := obs.StartSpan(ctx, "cg_solve_multi")
	err := solveMulti64(ctx, a, b, dst, opts, stats)
	maxIters, allConv := 0, true
	for j := range stats {
		if stats[j].Iterations > maxIters {
			maxIters = stats[j].Iterations
		}
		allConv = allConv && stats[j].Converged
		obs.Observe(ctx, obs.MetricCGIterations, float64(stats[j].Iterations))
		obs.Observe(ctx, obs.MetricCGResidual, stats[j].Residual)
	}
	if sp != nil {
		sp.SetAttr("n", n)
		sp.SetAttr("rhs", k)
		sp.SetAttr("iterations", maxIters)
		sp.SetAttr("converged", allConv)
		sp.End()
	}
	if err == nil && !allConv {
		err = ErrNoConvergence
	}
	return dst, stats, err
}

// solveMulti64 packs the right-hand sides, runs the blocked sweep and
// unpacks solutions and per-lane stats by original RHS position.
func solveMulti64(ctx context.Context, a *Matrix, b, dst [][]float64, opts SolveOptions, stats []SolveStats) error {
	n, k := a.Rows(), len(b)
	sc := multiPool64.Get().(*blockScratch)
	defer multiPool64.Put(sc)
	sc.resize(n, k)
	packBlock(sc, a, b)
	err := solveBlocked(ctx, a, k, sc, opts.Tol, opts.MaxIter)
	for s := 0; s < k; s++ {
		j := sc.lane[s]
		for i := 0; i < n; i++ {
			dst[j][i] = sc.x[i*k+s]
		}
		r := sc.res[s]
		stats[j] = SolveStats{Iterations: r.iters, Residual: r.rel, Converged: r.converged}
	}
	return err
}

// packBlock loads the right-hand sides into the residual block (x = 0
// so r = b), zeroes the solution block and resets the lane map.
func packBlock(sc *blockScratch, a *Matrix, b [][]float64) {
	n, k := a.Rows(), len(b)
	for i := range sc.x {
		sc.x[i] = 0
	}
	for j, bj := range b {
		for i := 0; i < n; i++ {
			sc.r[i*k+j] = bj[i]
		}
	}
	for j := 0; j < k; j++ {
		sc.lane[j] = j
		sc.res[j] = laneResult{}
	}
	// Shared Jacobi preconditioner (same zero-diagonal guard as solveCG).
	for i := 0; i < n; i++ {
		d := a.At(i, i)
		if d == 0 {
			d = 1
		}
		sc.minv[i] = 1 / d
	}
}

// solveBlocked is the blocked CG core. On entry sc.r holds the packed
// right-hand sides, sc.x is zero, sc.minv the preconditioner and
// sc.lane the identity map. It retires lanes as they converge (or break
// down) by swapping them past the active width m, records every lane's
// outcome in sc.res (indexed by block position — translate through
// sc.lane), and returns only a context error; convergence is judged per
// lane by the caller.
func solveBlocked(ctx context.Context, a *Matrix, k int, sc *blockScratch, tol float64, maxIter int) error {
	n, m := a.rows, k
	// Zero right-hand sides are solved by x = 0 immediately. nb is
	// recomputed at the top of each pass so a lane swapped into slot j
	// by a retirement is measured too.
	for j := 0; j < m; {
		sc.nb[j] = normLane(sc.r, j, k, n)
		if sc.nb[j] == 0 {
			sc.res[j] = laneResult{converged: true}
			sc.swap(j, m-1, n, k)
			m--
			continue
		}
		j++
	}
	if m == 0 {
		return nil
	}

	for i := 0; i < n; i++ {
		base := i * k
		mi := sc.minv[i]
		for j := 0; j < m; j++ {
			sc.z[base+j] = mi * sc.r[base+j]
		}
	}
	copy(sc.p, sc.z)
	dotLanes(sc.r, sc.z, sc.rz, k, m, n)
	dotLanes(sc.r, sc.r, sc.rel, k, m, n)
	for j := 0; j < m; j++ {
		sc.rel[j] = math.Sqrt(sc.rel[j]) / sc.nb[j]
	}

	it := 1
	for ; it <= maxIter && m > 0; it++ {
		if err := ctx.Err(); err != nil {
			for j := 0; j < m; j++ {
				sc.res[j] = laneResult{iters: it - 1, rel: sc.rel[j]}
			}
			return err
		}
		spmmRange(a.rowPtr, a.colIdx, a.val, sc.p, sc.ap, 0, n, k, m)
		dotLanes(sc.p, sc.ap, sc.pap, k, m, n)
		// Breakdown check before the x update, matching solveCG's order.
		for j := 0; j < m; {
			if sc.pap[j] == 0 {
				sc.res[j] = laneResult{iters: it, rel: sc.rel[j]}
				sc.swap(j, m-1, n, k)
				m--
				continue
			}
			j++
		}
		if m == 0 {
			break
		}
		for j := 0; j < m; j++ {
			sc.alpha[j] = sc.rz[j] / sc.pap[j]
		}
		for i := 0; i < n; i++ {
			base := i * k
			for j := 0; j < m; j++ {
				al := sc.alpha[j]
				sc.x[base+j] += al * sc.p[base+j]
				sc.r[base+j] -= al * sc.ap[base+j]
			}
		}
		dotLanes(sc.r, sc.r, sc.rel, k, m, n)
		for j := 0; j < m; j++ {
			sc.rel[j] = math.Sqrt(sc.rel[j]) / sc.nb[j]
		}
		for j := 0; j < m; {
			if sc.rel[j] <= tol {
				sc.res[j] = laneResult{iters: it, rel: sc.rel[j], converged: true}
				sc.swap(j, m-1, n, k)
				m--
				continue
			}
			j++
		}
		if m == 0 {
			break
		}
		for i := 0; i < n; i++ {
			base := i * k
			mi := sc.minv[i]
			for j := 0; j < m; j++ {
				sc.z[base+j] = mi * sc.r[base+j]
			}
		}
		// pap is dead until the next iteration's spmm — reuse it to hold
		// the new r·z so the fused reduction has a landing pad.
		dotLanes(sc.r, sc.z, sc.pap, k, m, n)
		for j := 0; j < m; j++ {
			sc.alpha[j] = sc.pap[j] / sc.rz[j] // alpha doubles as beta here
			sc.rz[j] = sc.pap[j]
		}
		for i := 0; i < n; i++ {
			base := i * k
			for j := 0; j < m; j++ {
				sc.p[base+j] = sc.z[base+j] + sc.alpha[j]*sc.p[base+j]
			}
		}
	}
	for j := 0; j < m; j++ {
		sc.res[j] = laneResult{iters: maxIter, rel: sc.rel[j]}
	}
	return nil
}

// spmmRange computes ap = A·p for rows lo ≤ r < hi over the m active
// lanes of a k-stride block, the entry value loaded once and broadcast
// into the contiguous lane accumulators.
//
// It processes each row in lane tiles of 8 (then 4, then 1)
// with the tile's partial sums held in registers across the row's
// nonzeros. The naive nonzero-outer loop stores and reloads every lane
// accumulator once per nonzero — three memory ops per multiply-add
// where MulVec needs one — and measures ~2× slower per lane than the
// single-RHS kernel it is supposed to beat. Tiling re-reads the row's
// colIdx/vals once per tile, but those are a few hundred cache-hot
// bytes; the accumulators never leave registers until the single store
// per tile. Per lane the sum still runs ascending over the row's
// nonzeros, so results stay bit-identical to MulVec.
func spmmRange(rowPtr, colIdx []int, vals, p, ap []float64, lo, hi, k, m int) {
	for r := lo; r < hi; r++ {
		start, end := rowPtr[r], rowPtr[r+1]
		arow := ap[r*k : r*k+m]
		j := 0
		for ; j+8 <= m; j += 8 {
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			for i := start; i < end; i++ {
				v := vals[i]
				pc := p[colIdx[i]*k+j:]
				pc = pc[:8:8]
				a0 += v * pc[0]
				a1 += v * pc[1]
				a2 += v * pc[2]
				a3 += v * pc[3]
				a4 += v * pc[4]
				a5 += v * pc[5]
				a6 += v * pc[6]
				a7 += v * pc[7]
			}
			av := arow[j:]
			av = av[:8:8]
			av[0], av[1], av[2], av[3] = a0, a1, a2, a3
			av[4], av[5], av[6], av[7] = a4, a5, a6, a7
		}
		for ; j+4 <= m; j += 4 {
			var a0, a1, a2, a3 float64
			for i := start; i < end; i++ {
				v := vals[i]
				pc := p[colIdx[i]*k+j:]
				pc = pc[:4:4]
				a0 += v * pc[0]
				a1 += v * pc[1]
				a2 += v * pc[2]
				a3 += v * pc[3]
			}
			av := arow[j:]
			av = av[:4:4]
			av[0], av[1], av[2], av[3] = a0, a1, a2, a3
		}
		for ; j < m; j++ {
			var acc float64
			for i := start; i < end; i++ {
				acc += vals[i] * p[colIdx[i]*k+j]
			}
			arow[j] = acc
		}
	}
}

// dotLane is dot() over lane j of two k-stride blocks, accumulated
// ascending — the same order as the single-RHS kernels.
func dotLane(a, b []float64, j, k, n int) float64 {
	s := 0.0
	for i := 0; i < n; i++ {
		s += a[i*k+j] * b[i*k+j]
	}
	return s
}

func normLane(a []float64, j, k, n int) float64 {
	return math.Sqrt(dotLane(a, a, j, k, n))
}

// dotLanes fills out[j] = dotLane(a, b, j) for every active lane in
// ONE contiguous pass over the blocks. With k lanes a per-lane dotLane
// walks the block at a k·8-byte stride — a cache-line miss per
// element once k is batch-sized — and the solver needs three such
// reductions per iteration. Fusing them keeps the reduction traffic at
// one block read regardless of m. Per lane the accumulation is still
// ascending in i, so the result is bit-identical to dotLane.
func dotLanes(a, b, out []float64, k, m, n int) {
	for j := 0; j < m; j++ {
		out[j] = 0
	}
	for i := 0; i < n; i++ {
		base := i * k
		av := a[base : base+m]
		bv := b[base : base+m]
		for j, x := range av {
			out[j] += x * bv[j]
		}
	}
}
