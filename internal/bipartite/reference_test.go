package bipartite

import (
	"sort"

	"repro/internal/sparse"
)

// The functions below are the implementations BuildCompact replaced,
// kept as test oracles: they materialize every intermediate matrix the
// serving path no longer builds, and the bit-identity tests hold the
// row-lazy carve to them exactly.

// refQueryTransition is the row-normalized two-step walk query →
// object → query of one bipartite, the p^X(q_a|q_b) of Section IV-C.
func refQueryTransition(w *sparse.Matrix) *sparse.Matrix {
	return sparse.MulMat(w.RowNormalized(), w.Transpose().RowNormalized())
}

// refAverageTransition is the mean of the three views' query→query
// transitions — the uniform cross-view walk of the compact expansion.
func refAverageTransition(r *Representation) *sparse.Matrix {
	var acc *sparse.Matrix
	for v := 0; v < NumViews; v++ {
		t := refQueryTransition(r.W[v])
		if acc == nil {
			acc = t.Scale(1.0 / NumViews)
		} else {
			acc = sparse.Add(acc, t, 1.0/NumViews)
		}
	}
	return acc
}

// refBuildCompact is the carve over a materialized average transition:
// dense MulVecT per step, a full sort of everything reachable, map
// lookups throughout and a Builder per induced bipartite.
func refBuildCompact(r *Representation, trans *sparse.Matrix, seeds []int, cfg CompactConfig) *Compact {
	cfg = cfg.withDefaults()
	n := r.NumQueries()

	c := &Compact{Full: r, LocalOf: make(map[int]int)}
	add := func(q int) {
		if q < 0 || q >= n {
			return
		}
		if _, dup := c.LocalOf[q]; dup {
			return
		}
		c.LocalOf[q] = len(c.QueryIDs)
		c.QueryIDs = append(c.QueryIDs, q)
	}
	for _, s := range seeds {
		add(s)
		if len(c.QueryIDs) >= cfg.Budget {
			break
		}
	}
	if len(c.QueryIDs) == 0 {
		return c
	}

	if len(c.QueryIDs) < cfg.Budget {
		p := make([]float64, n)
		for _, q := range c.QueryIDs {
			p[q] = 1 / float64(len(c.QueryIDs))
		}
		next := make([]float64, n)
		for step := 0; step < cfg.WalkSteps && len(c.QueryIDs) < cfg.Budget; step++ {
			trans.MulVecT(p, next)
			for i := range p {
				p[i] += next[i]
			}
			type cand struct {
				q    int
				mass float64
			}
			var cands []cand
			for q := 0; q < n; q++ {
				if _, in := c.LocalOf[q]; !in && p[q] > 0 {
					cands = append(cands, cand{q, p[q]})
				}
			}
			sort.Slice(cands, func(i, j int) bool {
				if cands[i].mass != cands[j].mass {
					return cands[i].mass > cands[j].mass
				}
				return cands[i].q < cands[j].q
			})
			for _, cd := range cands {
				if len(c.QueryIDs) >= cfg.Budget {
					break
				}
				add(cd.q)
			}
		}
	}

	for v := 0; v < NumViews; v++ {
		objMap := make(map[int]int)
		type trip struct {
			lq, o int
			val   float64
		}
		var trips []trip
		for lq, q := range c.QueryIDs {
			r.W[v].Row(q, func(o int, val float64) {
				if _, ok := objMap[o]; !ok {
					objMap[o] = len(objMap)
				}
				trips = append(trips, trip{lq, objMap[o], val})
			})
		}
		b := sparse.NewBuilder(len(c.QueryIDs), len(objMap))
		for _, t := range trips {
			b.Add(t.lq, t.o, t.val)
		}
		c.W[v] = b.Build()
	}
	return c
}
