// Package randomwalk provides generic Markov random-walk machinery on
// sparse transition matrices: multi-step forward and backward visit
// distributions (the FRW/BRW baselines of Craswell & Szummer) and
// truncated hitting times (Mei et al.), which the HT, DQS and PHT
// baselines and PQS-DA's own diversification stage build on.
package randomwalk

import (
	"sync"

	"repro/internal/sparse"
)

// Forward computes the t-step forward walk distribution p_t = p_0 Tᵗ
// with per-step self-transition probability selfLoop (Craswell &
// Szummer keep the walker in place with probability s each step; pass 0
// to disable). start is the initial distribution over nodes.
func Forward(trans *sparse.Matrix, start []float64, steps int, selfLoop float64) []float64 {
	n := trans.Rows()
	p := append([]float64(nil), start...)
	next := make([]float64, n)
	for s := 0; s < steps; s++ {
		trans.MulVecT(p, next) // next[j] = Σ_i p[i]·T[i,j]
		if selfLoop > 0 {
			for i := range next {
				next[i] = selfLoop*p[i] + (1-selfLoop)*next[i]
			}
		}
		p, next = next, p
	}
	return p
}

// Backward computes the t-step backward walk scores: the probability
// that a walk started at each node reaches the start distribution after
// t steps, b_t = Tᵗ b_0 (column vector iteration). The BRW baseline
// ranks suggestion candidates by this score.
func Backward(trans *sparse.Matrix, start []float64, steps int, selfLoop float64) []float64 {
	n := trans.Rows()
	b := append([]float64(nil), start...)
	next := make([]float64, n)
	for s := 0; s < steps; s++ {
		trans.MulVec(b, next) // next[i] = Σ_j T[i,j]·b[j]
		if selfLoop > 0 {
			for i := range next {
				next[i] = selfLoop*b[i] + (1-selfLoop)*next[i]
			}
		}
		b, next = next, b
	}
	return b
}

// TruncatedHittingTime computes the l-step truncated expected hitting
// time from every node to the target set S on the transition matrix:
//
//	h_{t+1}(i) = 1 + Σ_j T[i,j]·h_t(j)   for i ∉ S,   h(i) = 0 on S,
//
// iterated l times from h_0 = 0 (paper Eq. 17 / Algorithm 1). Nodes in S
// have hitting time 0. Dangling probability mass (rows summing below 1,
// including fully disconnected nodes) self-loops, so nodes that cannot
// reach S saturate at exactly l — callers can treat h ≥ l as
// "unreachable within the horizon".
//
// This closure-based form is the readable reference implementation; the
// serving hot path uses TruncatedHittingTimeFlat, which computes the
// identical recursion over the raw CSR arrays without a dynamic call
// per nonzero and without per-call allocation. The two are kept in
// bit-exact agreement by the parity tests in flat_test.go.
func TruncatedHittingTime(trans *sparse.Matrix, inS func(i int) bool, l int) []float64 {
	n := trans.Rows()
	sc := refPool.Get().(*refScratch)
	defer refPool.Put(sc)
	sc.resize(n)
	h, next, rowSum := sc.h, sc.next, sc.rowSum
	for i := range h {
		h[i] = 0
	}
	for i := 0; i < n; i++ {
		rowSum[i] = trans.RowSum(i)
	}
	for t := 0; t < l; t++ {
		for i := 0; i < n; i++ {
			if inS(i) {
				next[i] = 0
				continue
			}
			s := 1.0
			trans.Row(i, func(j int, v float64) {
				s += v * h[j]
			})
			if dangling := 1 - rowSum[i]; dangling > 1e-12 {
				s += dangling * h[i]
			}
			next[i] = s
		}
		h, next = next, h
	}
	// The recursion ping-pongs inside the pooled scratch; the returned
	// vector must outlive it, so copy out (the only per-call allocation).
	out := make([]float64, n)
	copy(out, h)
	return out
}

// refScratch is TruncatedHittingTime's pooled working set: the two
// ping-pong vectors plus the per-row probability mass. The greedy
// seed-selection loop calls the reference kernel once per round, so
// without pooling those three n-vectors dominate the stage's
// allocation count.
type refScratch struct {
	h, next, rowSum []float64
}

var refPool = sync.Pool{New: func() any { return new(refScratch) }}

func (s *refScratch) resize(n int) {
	if cap(s.h) < n {
		s.h = make([]float64, n)
		s.next = make([]float64, n)
		s.rowSum = make([]float64, n)
		return
	}
	s.h = s.h[:n]
	s.next = s.next[:n]
	s.rowSum = s.rowSum[:n]
}

// HittingTimeToSet is a convenience wrapper taking the target set as a
// map.
func HittingTimeToSet(trans *sparse.Matrix, set map[int]bool, l int) []float64 {
	return TruncatedHittingTime(trans, func(i int) bool { return set[i] }, l)
}

// danglingEps is the threshold below which a row's missing probability
// mass is treated as rounding noise rather than a dangling self-loop.
// It matches the historical check in TruncatedHittingTime so the flat
// kernel reproduces it bit-exactly.
const danglingEps = 1e-12

// DanglingMass returns each row's missing probability mass 1 − Σ_j
// T[i,j], clamped to 0 where it is below the rounding threshold. The
// hitting-time recursion self-loops this mass, and for an immutable
// transition matrix it is a pure function of the matrix — compute it
// once and pass it to every TruncatedHittingTimeFlat call instead of
// re-deriving row sums per greedy round.
func DanglingMass(trans *sparse.Matrix) []float64 {
	n := trans.Rows()
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		if dangling := 1 - trans.RowSum(i); dangling > danglingEps {
			d[i] = dangling
		}
	}
	return d
}

// SweepScratch is the reusable state of truncated hitting-time sweeps:
// the two ping-pong n-vectors of the recursion. A zero SweepScratch is
// ready to use; Resize (or the kernel itself) grows it on demand.
// Callers that run one sweep per greedy round — or pool scratch across
// requests — pay zero steady-state allocation.
//
// The slice returned by TruncatedHittingTimeFlat aliases this scratch:
// consume it (or copy it out) before the next sweep reuses the buffers.
type SweepScratch struct {
	h, next []float64
}

// Resize readies the scratch for n-node sweeps, reallocating only when
// the capacity is insufficient.
func (s *SweepScratch) Resize(n int) {
	if cap(s.h) < n {
		s.h = make([]float64, n)
		s.next = make([]float64, n)
		return
	}
	s.h = s.h[:n]
	s.next = s.next[:n]
}

// HittingTimeOpts tunes TruncatedHittingTimeFlat.
type HittingTimeOpts struct {
	// Steps is the paper's l, the truncation depth (must be > 0).
	Steps int
	// Tol enables the early-convergence exit: the recursion stops after
	// sweep t once max_i |h_t(i) − h_{t−1}(i)| ≤ Tol, i.e. when another
	// sweep cannot move any hitting time by more than Tol. ≤ 0 runs the
	// full fixed-l recursion of Eq. 17. Note that graphs with nodes
	// unable to reach S never converge (their h grows by 1 per sweep
	// until truncation), so the exit fires only when every node either
	// reaches S or is in it.
	Tol float64
	// Dangling is the precomputed DanglingMass of the matrix. Nil makes
	// the kernel derive it per call (allocating); callers holding an
	// immutable matrix should compute it once.
	Dangling []float64
	// Scratch provides the sweep's two n-vectors. Nil allocates fresh
	// ones.
	Scratch *SweepScratch
	// Rows, when non-nil, names the only entries of the result the
	// caller will read (the greedy loop reads its candidate pool, a
	// fraction of the graph). The kernel may then leave every other
	// entry undefined; it uses that in the one sweep whose output
	// feeds neither a later sweep nor the convergence test — the last
	// of a full-depth run — and computes just these rows there. The
	// listed entries and the sweep count are exactly those of a nil
	// Rows run. Indices must lie in [0, n).
	Rows []int
}

// TruncatedHittingTimeFlat is the hot-path form of
// TruncatedHittingTime: the same recursion over a []bool membership
// vector and the raw CSR arrays, with caller-owned scratch, precomputed
// dangling mass and an optional early convergence exit. It returns the
// hitting-time vector (aliasing opts.Scratch when provided; restricted
// to opts.Rows when those are given) and the number of sweeps actually
// run (= opts.Steps unless the early exit fired).
func TruncatedHittingTimeFlat(trans *sparse.Matrix, inS []bool, opts HittingTimeOpts) ([]float64, int) {
	n := trans.Rows()
	if len(inS) != n {
		panic("randomwalk: inS length does not match matrix rows")
	}
	dangling := opts.Dangling
	if dangling == nil {
		dangling = DanglingMass(trans)
	}
	scratch := opts.Scratch
	if scratch == nil {
		scratch = &SweepScratch{}
	}
	scratch.Resize(n)
	h, next := scratch.h, scratch.next
	for i := range h {
		h[i] = 0
	}
	view := trans.View()
	iters := 0
	for t := 0; t < opts.Steps; t++ {
		var maxDiff float64
		switch {
		case t == 0:
			maxDiff = firstSweep(inS, next)
		case t == opts.Steps-1 && opts.Rows != nil:
			// Nothing reads maxDiff after the last sweep.
			for _, i := range opts.Rows {
				sweepRange(i, i+1, view, dangling, inS, h, next)
			}
		default:
			maxDiff = sweepRange(0, n, view, dangling, inS, h, next)
		}
		h, next = next, h
		iters = t + 1
		if opts.Tol > 0 && maxDiff <= opts.Tol {
			break
		}
	}
	scratch.h, scratch.next = h, next
	return h, iters
}

// firstSweep is the sweep from h₀ = 0 without the arithmetic: every
// product with h₀ vanishes, so a node outside S gets exactly 1 and a
// node in S stays 0 — the values sweepRange computes (1 + 0, dangling
// mass times 0 added) and the max change it reports.
func firstSweep(inS []bool, next []float64) float64 {
	maxDiff := 0.0
	for i, in := range inS {
		if in {
			next[i] = 0
		} else {
			next[i] = 1
			maxDiff = 1
		}
	}
	return maxDiff
}

// sweepRange runs one hitting-time sweep over rows [lo, hi), reading h
// and writing next, and returns max_i |next_i − h_i| over the range.
// This is the innermost loop of the diversification stage; it indexes
// the CSR arrays directly so the compiler sees plain slice loads
// instead of a closure call per nonzero.
func sweepRange(lo, hi int, view sparse.CSRView, dangling []float64, inS []bool, h, next []float64) float64 {
	rowPtr, colIdx, val := view.RowPtr, view.ColIdx, view.Val
	maxDiff := 0.0
	for i := lo; i < hi; i++ {
		if inS[i] {
			next[i] = 0
			continue
		}
		// Row dot product with four accumulators: the naive s += v·h
		// chain serializes on FP-add latency; independent partial sums
		// let the loads and adds overlap.
		start, end := rowPtr[i], rowPtr[i+1]
		cols, vals := colIdx[start:end], val[start:end]
		var s0, s1, s2, s3 float64
		p := 0
		for ; p+4 <= len(vals); p += 4 {
			s0 += vals[p] * h[cols[p]]
			s1 += vals[p+1] * h[cols[p+1]]
			s2 += vals[p+2] * h[cols[p+2]]
			s3 += vals[p+3] * h[cols[p+3]]
		}
		for ; p < len(vals); p++ {
			s0 += vals[p] * h[cols[p]]
		}
		s := 1.0 + ((s0 + s1) + (s2 + s3))
		if d := dangling[i]; d != 0 {
			s += d * h[i]
		}
		next[i] = s
		diff := s - h[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > maxDiff {
			maxDiff = diff
		}
	}
	return maxDiff
}

// Unit returns a length-n one-hot distribution at idx.
func Unit(n, idx int) []float64 {
	v := make([]float64, n)
	v[idx] = 1
	return v
}
