// Package regularize implements the context-aware regularization
// framework of the paper's Section IV-B: it propagates an input query's
// (and its search context's) initial relevance vector F⁰ through the
// compact multi-bipartite representation by solving the sparse linear
// system of Eq. 15,
//
//	((1 + Σ_X α^X)·I − Σ_X α^X·L^X) F* = F⁰,
//
// and identifies the most relevant suggestion candidate as the largest
// entry of F* outside the seed set.
package regularize

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/bipartite"
	"repro/internal/numeric"
	"repro/internal/sparse"
)

// Config tunes the framework.
type Config struct {
	// Alpha are the per-view Lagrange multipliers α^X (Eq. 15),
	// empirically tuned as the paper prescribes; defaults are 0.1 for
	// each view (light smoothing keeps the first candidate tightly
	// coupled to the seed's own neighborhoods). They must be
	// nonnegative and (with Mu) satisfy Σα ≤ μ so π = μ − Σα ≥ 0
	// (Eq. 14).
	Alpha [bipartite.NumViews]float64
	// Mu is the trade-off between fitting and smoothness (Eq. 10),
	// default 2.0. Only the Σα ≤ μ feasibility matters after
	// dualization; Mu is validated, not used numerically.
	Mu float64
	// Lambda is the forward-decay scale of the context vector (Eq. 7),
	// in 1/seconds; default ln(2)/60 (context weight halves per minute).
	Lambda float64
	// Solver options for the CG solve of Eq. 15.
	Solver sparse.SolveOptions
}

func (c Config) withDefaults() Config {
	allZero := true
	for _, a := range c.Alpha {
		if a != 0 {
			allZero = false
		}
	}
	if allZero {
		for v := range c.Alpha {
			c.Alpha[v] = 0.1
		}
	}
	if c.Mu <= 0 {
		c.Mu = 2.0
	}
	if c.Lambda <= 0 {
		c.Lambda = math.Ln2 / 60
	}
	return c
}

// Validate checks the dual-feasibility conditions of Eq. 14.
func (c Config) Validate() error {
	c = c.withDefaults()
	sum := 0.0
	for v, a := range c.Alpha {
		if a < 0 {
			return fmt.Errorf("regularize: alpha[%s] = %v < 0", bipartite.View(v), a)
		}
		sum += a
	}
	if sum > c.Mu {
		return fmt.Errorf("regularize: Σα = %v exceeds μ = %v (π would be negative)", sum, c.Mu)
	}
	return nil
}

// ContextEntry is one search-context query with its elapsed time before
// the input query.
type ContextEntry struct {
	// Local is the compact-local index of the context query.
	Local int
	// Before is how long before the input query it was submitted (≥ 0).
	Before time.Duration
}

// ContextVector builds F⁰ (Eq. 7) over a compact representation of size
// n: the input query's entry is 1, each context query q' decays as
// exp(−λ·Δt), everything else 0.
func ContextVector(n, inputLocal int, context []ContextEntry, lambda float64) []float64 {
	f0 := make([]float64, n)
	if inputLocal >= 0 && inputLocal < n {
		f0[inputLocal] = 1
	}
	for _, c := range context {
		if c.Local < 0 || c.Local >= n || c.Local == inputLocal {
			continue
		}
		dt := c.Before.Seconds()
		if dt < 0 {
			dt = 0
		}
		w := math.Exp(-lambda * dt)
		if w > f0[c.Local] {
			f0[c.Local] = w
		}
	}
	return f0
}

// Result carries the full relevance vector and the chosen candidate.
type Result struct {
	// F is the solved relevance vector F* over compact-local indices.
	F []float64
	// First is the compact-local index of the most relevant candidate
	// (largest F* outside the seeds), or −1 when no candidate exists.
	First int
	// Iterations is the CG iteration count (for the efficiency figures).
	Iterations int
	// Residual is the solve's final relative residual ‖Ax−b‖₂/‖b‖₂ —
	// solver-convergence telemetry surfaced per request.
	Residual float64
}

// FirstCandidate solves Eq. 15 on the compact representation and picks
// the most relevant suggestion candidate. seeds (input query + search
// context, compact-local) are excluded from candidacy.
func FirstCandidate(c *bipartite.Compact, f0 []float64, seeds []int, cfg Config) (Result, error) {
	return FirstCandidateCtx(context.Background(), c, f0, seeds, cfg)
}

// FirstCandidateCtx is FirstCandidate with request-scoped cancellation,
// threaded into the CG iteration of the Eq. 15 solve. On cancellation
// the returned error wraps ctx.Err() and carries the iteration count
// reached, so serving timings stay reportable.
func FirstCandidateCtx(ctx context.Context, c *bipartite.Compact, f0 []float64, seeds []int, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	n := c.Size()
	if len(f0) != n {
		return Result{}, fmt.Errorf("regularize: F0 length %d != compact size %d", len(f0), n)
	}
	a := System(c, cfg)
	// Convergence telemetry rides on a local copy of the solver options
	// so a caller-shared Config is never mutated.
	var st sparse.SolveStats
	solver := cfg.Solver
	solver.Stats = &st
	f, iters, err := sparse.SolveCGCtx(ctx, a, f0, nil, solver)
	if err != nil {
		return Result{Iterations: iters, Residual: st.Residual}, fmt.Errorf("regularize: solving Eq. 15: %w", err)
	}
	return Result{
		F:          f,
		First:      argmaxExcluding(f, seeds),
		Iterations: iters,
		Residual:   st.Residual,
	}, nil
}

// FirstCandidatesCtx is the batched form of FirstCandidateCtx: it solves
// Eq. 15 once per F⁰ column against ONE shared system matrix using the
// blocked multi-RHS CG kernel, so a batch of b requests on the same
// compact costs a single sweep of shared SpMM iterations instead of b
// independent SpMV-driven solves. seeds[i] are the compact-local indices
// excluded from candidacy for item i.
//
// On a solver error the per-item results still carry their iteration
// counts and residuals; items whose lane converged get their candidate
// filled so partial batches stay reportable.
func FirstCandidatesCtx(ctx context.Context, c *bipartite.Compact, f0s [][]float64, seeds [][]int, cfg Config) ([]Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(seeds) != len(f0s) {
		return nil, fmt.Errorf("regularize: %d seed sets for %d F0 vectors", len(seeds), len(f0s))
	}
	n := c.Size()
	for i, f0 := range f0s {
		if len(f0) != n {
			return nil, fmt.Errorf("regularize: F0[%d] length %d != compact size %d", i, len(f0), n)
		}
	}
	out := make([]Result, len(f0s))
	if len(f0s) == 0 {
		return out, nil
	}
	a := System(c, cfg)
	fs, stats, err := sparse.SolveCGMultiCtx(ctx, a, f0s, nil, cfg.Solver)
	for i := range out {
		out[i] = Result{
			F:          fs[i],
			First:      -1,
			Iterations: stats[i].Iterations,
			Residual:   stats[i].Residual,
		}
		if stats[i].Converged {
			out[i].First = argmaxExcluding(fs[i], seeds[i])
		}
	}
	if err != nil {
		return out, fmt.Errorf("regularize: solving Eq. 15 (batched, %d rhs): %w", len(f0s), err)
	}
	return out, nil
}

// argmaxExcluding finds the index of the largest entry of f outside the
// seed set. Seed sets are tiny (input query + context, a handful at
// most), so a linear scan per entry beats materializing a map — the
// old map-based exclusion was one of the per-request allocators this
// path sheds.
func argmaxExcluding(f []float64, seeds []int) int {
	best := -1
	for i, fi := range f {
		if best >= 0 && fi <= f[best] {
			continue
		}
		skip := false
		for _, s := range seeds {
			if s == i {
				skip = true
				break
			}
		}
		if !skip {
			best = i
		}
	}
	return best
}

// Rank returns all non-seed compact-local indices ordered by descending
// F* — a full relevance-oriented ranking, used by ablation benches.
func (r Result) Rank(seeds []int) []int {
	excluded := make(map[int]bool, len(seeds))
	for _, s := range seeds {
		excluded[s] = true
	}
	order := numeric.TopK(r.F, len(r.F))
	out := order[:0]
	for _, i := range order {
		if !excluded[i] {
			out = append(out, i)
		}
	}
	return out
}
