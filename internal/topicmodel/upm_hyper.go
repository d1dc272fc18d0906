package topicmodel

import (
	"math"

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
		for _, doc := range m.docs {
			nd := doc.ndkSum
			v += numeric.Lgamma(sumA) - numeric.Lgamma(sumA+nd)
			dig := numeric.Digamma(sumA) - numeric.Digamma(sumA+nd)
			for k := 0; k < m.cfg.K; k++ {
				c := doc.ndk[k]
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
			beta := m.betaPrior[k*m.v : (k+1)*m.v]
			delta := m.deltaPrior[k*m.u : (k+1)*m.u]
			m.optimizeEmissionPrior(opt, beta, k, func(doc *upmDoc) (*countRows, float64) {
				return &doc.words, doc.nkwdSum[k]
			})
			if m.u > 0 {
				m.optimizeEmissionPrior(opt, delta, k, func(doc *upmDoc) (*countRows, float64) {
					return &doc.urls, doc.nkudSum[k]
				})
			}
			m.betaSum[k] = numeric.Sum(beta)
			m.deltaSum[k] = numeric.Sum(delta)
		}
	})
}

// optimizeEmissionPrior maximizes Σ_d [ log DirMult(C_k·d | prior) ] in
// topic k's prior vector, in place; counts returns a document's word or
// URL counts and their topic-k total. The objective reads each
// document's row k in place: its ids are ascending, so the sums run in
// a fixed order.
func (m *UPM) optimizeEmissionPrior(opt numeric.LBFGS, prior []float64, k int, counts func(*upmDoc) (*countRows, float64)) {

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
		// Documents with no tokens on topic k contribute Γ-ratios that
		// cancel, so they are left out.
		commonGrad := 0.0
		for _, doc := range m.docs {
			rows, sum := counts(doc)
			if sum == 0 {
				continue
			}
			v += lgSumP - numeric.Lgamma(sumP+sum)
			commonGrad += digSumP - numeric.Digamma(sumP+sum)
			for i := rows.ptr[k]; i < rows.ptr[k+1]; i++ {
				w, c := rows.idx[i], rows.val[i]
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
