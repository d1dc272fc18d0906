package topicmodel

import (
	"math"
	"sort"

	"repro/internal/numeric"
)

// optimizeHyperparameters runs the paper's Eqs. 25–27: maximize the
// complete log-likelihood in α (document mixtures), each β_k (word
// priors) and each δ_k (URL priors) with L-BFGS, in log-space to keep
// the vectors positive (the paper's L-BFGS-B reference [30]).
func (m *UPM) optimizeHyperparameters() {
	opt := numeric.LBFGS{MaxIter: m.cfg.HyperIters}

	// --- α (Eq. 25): Dirichlet-multinomial over session-topic counts.
	alphaObj := func(alpha, grad []float64) float64 {
		v := 0.0
		sumA := numeric.Sum(alpha)
		for k := range grad {
			grad[k] = 0
		}
		for d := range m.ndk {
			nd := m.ndkSum[d]
			v += numeric.Lgamma(sumA) - numeric.Lgamma(sumA+nd)
			dig := numeric.Digamma(sumA) - numeric.Digamma(sumA+nd)
			for k := 0; k < m.cfg.K; k++ {
				c := m.ndk[d][k]
				v += numeric.Lgamma(alpha[k]+c) - numeric.Lgamma(alpha[k])
				grad[k] += numeric.Digamma(alpha[k]+c) - numeric.Digamma(alpha[k]) + dig
			}
		}
		return v
	}
	if a, _, err := opt.MaximizePositive(alphaObj, m.alpha); err == nil || err == numeric.ErrLineSearch {
		copy(m.alpha, a)
	}

	// --- β_k (Eq. 26) and δ_k (Eq. 27): per-topic priors of the
	// per-document emission Dirichlets. A topic's fits read the counts
	// and write only that topic's priors and sums, so topics fit in
	// parallel with the same result as in sequence.
	parallelFor(m.cfg.K, func() func(k int) {
		return func(k int) {
			m.optimizeEmissionPrior(opt, m.betaPrior[k], m.nkwd, m.nkwdSum, k)
			if m.u > 0 {
				m.optimizeEmissionPrior(opt, m.deltaPrior[k], m.nkud, m.nkudSum, k)
			}
			m.betaSum[k] = numeric.Sum(m.betaPrior[k])
			m.deltaSum[k] = numeric.Sum(m.deltaPrior[k])
		}
	})
}

// countRow is one document's topic-k emission counts with the ids in
// ascending order, so the objective sums in an order that does not
// depend on map iteration.
type countRow struct {
	ids  []int
	vals []float64
	sum  float64
}

// optimizeEmissionPrior maximizes Σ_d [ log DirMult(C_k·d | prior) ] in
// topic k's prior vector, in place; counts and sums are the per-(d, k)
// word or URL counts and their totals.
func (m *UPM) optimizeEmissionPrior(opt numeric.LBFGS, prior []float64, counts [][]map[int]float64, sums [][]float64, k int) {
	// Documents with no tokens on topic k contribute Γ-ratios that
	// cancel, so they are left out.
	var rows []countRow
	for d := range counts {
		if sums[d][k] == 0 {
			continue
		}
		c := counts[d][k]
		r := countRow{ids: make([]int, 0, len(c)), vals: make([]float64, len(c)), sum: sums[d][k]}
		for w := range c {
			r.ids = append(r.ids, w)
		}
		sort.Ints(r.ids)
		for i, w := range r.ids {
			r.vals[i] = c[w]
		}
		rows = append(rows, r)
	}

	// Gamma(a0, b0) prior on every coordinate (MAP instead of bare MLE):
	// the likelihood alone is maximized by driving coordinates of words
	// unseen in any document toward 0 and perfectly-consistent ones
	// toward +∞, both of which destroy held-out prediction. The prior's
	// log term repels 0 and the rate term caps growth. See DESIGN.md.
	const gammaShape, gammaRate = 1.05, 0.05
	obj := func(p, grad []float64) float64 {
		v := 0.0
		sumP := numeric.Sum(p)
		lgSumP := numeric.Lgamma(sumP)
		digSumP := numeric.Digamma(sumP)
		for i := range grad {
			v += (gammaShape-1)*math.Log(p[i]) - gammaRate*p[i]
			grad[i] = (gammaShape-1)/p[i] - gammaRate
		}
		// Gradient terms that touch every coordinate are accumulated
		// once per document; per-word terms only touch observed words.
		commonGrad := 0.0
		for _, r := range rows {
			v += lgSumP - numeric.Lgamma(sumP+r.sum)
			commonGrad += digSumP - numeric.Digamma(sumP+r.sum)
			for i, w := range r.ids {
				c := r.vals[i]
				v += numeric.Lgamma(p[w]+c) - numeric.Lgamma(p[w])
				grad[w] += numeric.Digamma(p[w]+c) - numeric.Digamma(p[w])
			}
		}
		for i := range grad {
			grad[i] += commonGrad
		}
		return v
	}
	if p, _, err := opt.MaximizePositive(obj, prior); err == nil || err == numeric.ErrLineSearch {
		copy(prior, p)
	}
}
