package bipartite

import (
	"slices"
	"sync"

	"repro/internal/sparse"
)

// Compact is a sub-representation induced on a budgeted set of queries
// around an input query and its search context (Section IV-A). It keeps
// a mapping back to the full representation's query IDs.
type Compact struct {
	// Full is the representation this compact view was carved from.
	Full *Representation
	// QueryIDs maps compact-local index → full query ID, in selection
	// order: index 0 is the input query, then its context, then expanded
	// neighbors by decreasing walk probability.
	QueryIDs []int
	// LocalOf maps full query ID → compact-local index.
	LocalOf map[int]int
	// W are the induced queries × objects matrices (objects restricted
	// to those touching a selected query).
	W [NumViews]*sparse.Matrix

	// extra memoizes derived values whose keys the compact cannot
	// enumerate up front (the Eq. 15 system matrix per α vector, the
	// hitting-time walker per selector config). See Derived.
	extraMu sync.Mutex
	extra   map[any]any
}

// CompactConfig tunes compact-representation construction.
type CompactConfig struct {
	// Budget is the paper's ℚ: the number of queries kept (default 200).
	Budget int
	// WalkSteps is how many expansion rounds of the Markov random walk
	// are run before giving up on filling the budget (default 4).
	WalkSteps int
}

func (c CompactConfig) withDefaults() CompactConfig {
	if c.Budget <= 0 {
		c.Budget = 200
	}
	if c.WalkSteps <= 0 {
		c.WalkSteps = 4
	}
	return c
}

// BuildCompact selects up to cfg.Budget queries around the seed set
// (input query first, then its search context) by expanding a Markov
// random walk over the averaged cross-view transition, then induces the
// three bipartites on the selection.
//
// seeds are full query IDs; the first seed is the input query. Unknown
// or duplicate seeds are ignored.
//
// The averaged transition is never materialized: a walk step reads only
// the rows whose mass is nonzero, so those rows are computed on the fly
// (carveScratch.scatterRow) from the per-representation factors of
// walkFactors. All working state lives in pooled dense arrays; the
// returned Compact owns only what it exposes.
func (r *Representation) BuildCompact(seeds []int, cfg CompactConfig) *Compact {
	cfg = cfg.withDefaults()
	n := r.NumQueries()

	c := &Compact{Full: r}
	sc := carvePool.Get().(*carveScratch)
	sc.grow(n, r)
	c.QueryIDs = make([]int, 0, min(cfg.Budget, n))
	for _, s := range seeds {
		if s >= 0 && s < n && sc.flags[s]&flagSelected == 0 {
			sc.flags[s] |= flagSelected
			c.QueryIDs = append(c.QueryIDs, s)
		}
		if len(c.QueryIDs) >= cfg.Budget {
			break
		}
	}
	if len(c.QueryIDs) > 0 {
		if len(c.QueryIDs) < cfg.Budget {
			sc.expand(r, c, cfg)
		}
		sc.induce(r, c)
	}
	c.LocalOf = make(map[int]int, len(c.QueryIDs))
	for local, q := range c.QueryIDs {
		c.LocalOf[q] = local
		sc.flags[q] = 0
	}
	// Only a scratch whose arrays are back to all-zero may be reused; a
	// panic above leaves this one to the garbage collector.
	carvePool.Put(sc)
	return c
}

// walkFactors returns, per view, the row-normalized transpose of W —
// the second factor of the two-step transition query → object → query.
// Together with W's own rows it determines any row of the averaged
// transition, at O(nnz(W)) to build where the transition itself is
// O(Σ_o deg(o)²). Computed on the first carve of a representation and
// shared by all later ones.
func (r *Representation) walkFactors() *[NumViews]sparse.CSRView {
	r.walkOnce.Do(func() {
		for v := 0; v < NumViews; v++ {
			r.walkWT[v] = r.WTransposed(View(v)).RowNormalized().View()
		}
	})
	return &r.walkWT
}

// Per-query marks of a carve in progress.
const (
	flagSelected uint8 = 1 << iota // admitted to the compact
	flagReached                    // listed in carveScratch.reached
	flagNext                       // listed in carveScratch.stepTouched
	flagRow                        // listed in carveScratch.rowTouched
	flagX                          // listed in carveScratch.xTouched
)

// carveScratch is the working set of one BuildCompact call. Every array
// indexed by query or object ID is all-zero between calls: each user
// records what it touched and resets exactly that, so a carve costs
// O(touched), not O(n), and a scratch sized for one representation
// serves a smaller one unchanged (grow handles a larger one).
type carveScratch struct {
	p, next []float64 // accumulated walk mass; the step's incoming mass
	x, row  []float64 // one view's transition row; the averaged row
	flags   []uint8
	// reached lists every query with (possibly zero) mass in p.
	reached, stepTouched, rowTouched, xTouched []int
	best                                       []candidate

	objLocal []int // per object: compact-local id + 1, 0 = not seen
	objs     []int // objects seen by the view being induced
}

var carvePool = sync.Pool{New: func() any { return new(carveScratch) }}

func (sc *carveScratch) grow(n int, r *Representation) {
	if len(sc.flags) < n {
		sc.p, sc.next = make([]float64, n), make([]float64, n)
		sc.x, sc.row = make([]float64, n), make([]float64, n)
		sc.flags = make([]uint8, n)
	}
	cols := 0
	for v := 0; v < NumViews; v++ {
		cols = max(cols, r.W[v].Cols())
	}
	if len(sc.objLocal) < cols {
		sc.objLocal = make([]int, cols)
	}
}

// expand propagates probability mass from the seeds through the
// averaged transition; after each step it admits the highest-mass new
// queries until the budget is filled. Mass accumulates across steps so
// early-reached (closer) queries keep an edge.
func (sc *carveScratch) expand(r *Representation, c *Compact, cfg CompactConfig) {
	wt := r.walkFactors()
	for _, q := range c.QueryIDs {
		sc.p[q] = 1 / float64(len(c.QueryIDs))
		sc.flags[q] |= flagReached
		sc.reached = append(sc.reached, q)
	}
	for step := 0; step < cfg.WalkSteps && len(c.QueryIDs) < cfg.Budget; step++ {
		// next = Tᵀp, one source row at a time in ascending row order —
		// the order in which a CSR Tᵀ·p accumulates each next[c].
		slices.Sort(sc.reached)
		for _, q := range sc.reached {
			if pq := sc.p[q]; pq != 0 {
				sc.scatterRow(r, wt, q, pq)
			}
		}
		for _, q := range sc.stepTouched {
			sc.p[q] += sc.next[q]
			sc.next[q] = 0
			sc.flags[q] &^= flagNext
			if sc.flags[q]&flagReached == 0 {
				sc.flags[q] |= flagReached
				sc.reached = append(sc.reached, q)
			}
		}
		sc.stepTouched = sc.stepTouched[:0]

		room := cfg.Budget - len(c.QueryIDs)
		for _, q := range sc.reached {
			if sc.flags[q]&flagSelected == 0 && sc.p[q] > 0 {
				sc.best = keepBest(sc.best, room, candidate{q, sc.p[q]})
			}
		}
		slices.SortFunc(sc.best, func(a, b candidate) int {
			if a.before(b) {
				return -1
			}
			return 1
		})
		for _, cd := range sc.best {
			sc.flags[cd.q] |= flagSelected
			c.QueryIDs = append(c.QueryIDs, cd.q)
		}
		sc.best = sc.best[:0]
	}
	for _, q := range sc.reached {
		sc.p[q] = 0
		sc.flags[q] &^= flagReached
	}
	sc.reached = sc.reached[:0]
}

// scatterRow adds mass·T[q,·] to next, where T is the mean of the three
// views' row-normalized two-step transitions. Per view it is one
// Gustavson row (W's row q, normalized by its sum, times the
// row-normalized Wᵀ, objects ascending); the views then fold as
// ⅓·x₀, + ⅓·x₁, + ⅓·x₂. These are the operations, in the order, of
// MulMat(W.RowNormalized(), Wᵀ.RowNormalized()) → Scale → Add → Add →
// MulVecT, so next comes out bit-identical to the materialized chain.
func (sc *carveScratch) scatterRow(r *Representation, wt *[NumViews]sparse.CSRView, q int, mass float64) {
	const share = 1.0 / NumViews
	for v := 0; v < NumViews; v++ {
		w, wtv := r.W[v].View(), &wt[v]
		lo, hi := w.RowPtr[q], w.RowPtr[q+1]
		sum := 0.0
		for _, val := range w.Val[lo:hi] {
			sum += val
		}
		for i := lo; i < hi; i++ {
			a := w.Val[i]
			if sum != 0 {
				a /= sum
			}
			o := w.ColIdx[i]
			for j := wtv.RowPtr[o]; j < wtv.RowPtr[o+1]; j++ {
				c := wtv.ColIdx[j]
				if sc.flags[c]&flagX == 0 {
					sc.flags[c] |= flagX
					sc.xTouched = append(sc.xTouched, c)
				}
				sc.x[c] += a * wtv.Val[j]
			}
		}
		for _, c := range sc.xTouched {
			x := sc.x[c]
			sc.x[c] = 0
			sc.flags[c] &^= flagX
			if x == 0 {
				continue
			}
			if sc.flags[c]&flagRow == 0 {
				sc.flags[c] |= flagRow
				sc.rowTouched = append(sc.rowTouched, c)
			}
			sc.row[c] += share * x
		}
		sc.xTouched = sc.xTouched[:0]
	}
	for _, c := range sc.rowTouched {
		t := sc.row[c]
		sc.row[c] = 0
		sc.flags[c] &^= flagRow
		if sc.flags[c]&flagNext == 0 {
			sc.flags[c] |= flagNext
			sc.stepTouched = append(sc.stepTouched, c)
		}
		sc.next[c] += t * mass
	}
	sc.rowTouched = sc.rowTouched[:0]
}

// candidate is a reached, not yet admitted query and its walk mass.
type candidate struct {
	q    int
	mass float64
}

// before is the admission order: larger mass first, ties by query ID.
// It is total (IDs are distinct), so the best m of a set are the same
// m, in the same order, however they are found.
func (a candidate) before(b candidate) bool {
	if a.mass != b.mass {
		return a.mass > b.mass
	}
	return a.q < b.q
}

// keepBest offers cd to h, the best at most m candidates seen so far,
// held as a binary heap whose root is the last of them in admission
// order — so a candidate that does not make the cut costs one compare.
func keepBest(h []candidate, m int, cd candidate) []candidate {
	if len(h) < m {
		h = append(h, cd)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !h[parent].before(h[i]) {
				break
			}
			h[parent], h[i] = h[i], h[parent]
			i = parent
		}
		return h
	}
	if !cd.before(h[0]) {
		return h
	}
	h[0] = cd
	for i := 0; ; {
		last := 2*i + 1 // the child later in admission order
		if last >= len(h) {
			break
		}
		if right := last + 1; right < len(h) && h[last].before(h[right]) {
			last = right
		}
		if !h[i].before(h[last]) {
			break
		}
		h[i], h[last] = h[last], h[i]
		i = last
	}
	return h
}

// induce builds the sub-bipartites on the selection: objects that touch
// at least one selected query, re-indexed densely per view in first-seen
// order. Rows are emitted straight into CSR, each kept sorted by local
// object ID as it grows (rows are short and mostly arrive in order);
// exact-zero weights are dropped.
func (sc *carveScratch) induce(r *Representation, c *Compact) {
	for v := 0; v < NumViews; v++ {
		w := r.W[v].View()
		bound := 0
		for _, q := range c.QueryIDs {
			bound += w.RowPtr[q+1] - w.RowPtr[q]
		}
		rowPtr := make([]int, len(c.QueryIDs)+1)
		colIdx := make([]int, 0, bound)
		val := make([]float64, 0, bound)
		for lq, q := range c.QueryIDs {
			start := len(colIdx)
			for i := w.RowPtr[q]; i < w.RowPtr[q+1]; i++ {
				o := w.ColIdx[i]
				if sc.objLocal[o] == 0 {
					sc.objs = append(sc.objs, o)
					sc.objLocal[o] = len(sc.objs)
				}
				if w.Val[i] == 0 {
					continue
				}
				colIdx = append(colIdx, sc.objLocal[o]-1)
				val = append(val, w.Val[i])
				for k := len(colIdx) - 1; k > start && colIdx[k-1] > colIdx[k]; k-- {
					colIdx[k-1], colIdx[k] = colIdx[k], colIdx[k-1]
					val[k-1], val[k] = val[k], val[k-1]
				}
			}
			rowPtr[lq+1] = len(colIdx)
		}
		c.W[v] = sparse.FromCSR(len(c.QueryIDs), len(sc.objs), rowPtr, colIdx, val)
		for _, o := range sc.objs {
			sc.objLocal[o] = 0
		}
		sc.objs = sc.objs[:0]
	}
}

// Size returns the number of selected queries.
func (c *Compact) Size() int { return len(c.QueryIDs) }

// QueryName returns the query string at compact-local index i.
func (c *Compact) QueryName(i int) string {
	return c.Full.Queries.Name(c.QueryIDs[i])
}

// Derived returns the memoized derived value for key, calling build on
// first use: anything that is a pure function of the immutable compact
// plus a comparable key qualifies (a system matrix per α vector, a
// walker per selector config).
// Once compacts are reused across requests (the engine's compact
// cache), every such derivation runs once per compact instead of once
// per request.
//
// build runs under the memo lock, so concurrent requests for the same
// key share a single construction; the built value must be immutable
// (or internally synchronized) because callers share it.
func (c *Compact) Derived(key any, build func() any) any {
	c.extraMu.Lock()
	defer c.extraMu.Unlock()
	if v, ok := c.extra[key]; ok {
		return v
	}
	v := build()
	if c.extra == nil {
		c.extra = make(map[any]any)
	}
	c.extra[key] = v
	return v
}
