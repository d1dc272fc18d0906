package topicmodel

import (
	"math"
	"math/rand"

	"repro/internal/numeric"
)

// SSTM is the session-based search topic model in the spirit of Jiang &
// Ng (SIGIR 2013, the paper's [35]): every session draws ONE topic that
// generates all of its words and clicked URLs from corpus-wide topic
// multinomials. It captures the session-coherence assumption the UPM
// also uses, but without per-user emission distributions or temporal
// modeling.
type SSTM struct {
	cfg  TrainConfig
	v, u int
	ndk  [][]float64 // sessions of doc d on topic k
	nkw  [][]float64
	nk   []float64
	nku  [][]float64
	nkuS []float64
	ndS  []float64
}

// TrainSSTM fits the session topic model by collapsed Gibbs sampling
// over session-level topic assignments.
func TrainSSTM(c *Corpus, cfg TrainConfig) *SSTM {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &SSTM{cfg: cfg, v: c.V(), u: c.U()}
	m.ndk = make([][]float64, len(c.Docs))
	m.ndS = make([]float64, len(c.Docs))
	for d := range m.ndk {
		m.ndk[d] = make([]float64, cfg.K)
	}
	m.nkw = make([][]float64, cfg.K)
	m.nk = make([]float64, cfg.K)
	m.nku = make([][]float64, cfg.K)
	m.nkuS = make([]float64, cfg.K)
	for k := 0; k < cfg.K; k++ {
		m.nkw[k] = make([]float64, m.v)
		m.nku[k] = make([]float64, m.u)
	}

	z := make([][]int, len(c.Docs))
	for d, doc := range c.Docs {
		z[d] = make([]int, len(doc.Sessions))
		for s, sess := range doc.Sessions {
			k := rng.Intn(cfg.K)
			z[d][s] = k
			m.addSession(d, k, sess, 1)
		}
	}
	logw := make([]float64, cfg.K)
	for it := 0; it < cfg.Iterations; it++ {
		for d, doc := range c.Docs {
			for s, sess := range doc.Sessions {
				old := z[d][s]
				m.addSession(d, old, sess, -1)
				for k := 0; k < cfg.K; k++ {
					logw[k] = m.sessionLogWeight(d, k, sess)
				}
				k := numeric.SampleLogCategorical(rng, logw)
				z[d][s] = k
				m.addSession(d, k, sess, 1)
			}
		}
	}
	return m
}

// sessionLogWeight is the collapsed conditional for assigning the whole
// session to topic k: the doc-mixture factor times the sequential
// predictive probability of all its words and URLs under topic k.
func (m *SSTM) sessionLogWeight(d, k int, sess Session) float64 {
	lw := math.Log(m.ndk[d][k] + m.cfg.Alpha)
	wSum := m.nk[k]
	words := sess.Words()
	for i, seen := range earlierEqual(words) {
		lw += math.Log((m.nkw[k][words[i]] + seen + m.cfg.Beta) / (wSum + m.cfg.Beta*float64(m.v)))
		wSum++
	}
	uSum := m.nkuS[k]
	urls := sess.URLs()
	for i, seen := range earlierEqual(urls) {
		lw += math.Log((m.nku[k][urls[i]] + seen + m.cfg.Delta) / (uSum + m.cfg.Delta*float64(m.u)))
		uSum++
	}
	return lw
}

func (m *SSTM) addSession(d, k int, sess Session, delta float64) {
	m.ndk[d][k] += delta
	m.ndS[d] += delta
	for _, w := range sess.Words() {
		m.nkw[k][w] += delta
		m.nk[k] += delta
	}
	for _, u := range sess.URLs() {
		m.nku[k][u] += delta
		m.nkuS[k] += delta
	}
}

// Name implements Model.
func (m *SSTM) Name() string { return "SSTM" }

// K implements Model.
func (m *SSTM) K() int { return m.cfg.K }

// Theta returns the smoothed document–topic distribution (over session
// assignments).
func (m *SSTM) Theta(d int) []float64 {
	theta := make([]float64, m.cfg.K)
	denom := m.ndS[d] + m.cfg.Alpha*float64(m.cfg.K)
	for k := range theta {
		theta[k] = (m.ndk[d][k] + m.cfg.Alpha) / denom
	}
	return theta
}

// PredictiveWordProb implements Model.
func (m *SSTM) PredictiveWordProb(d, w int) float64 {
	if d >= len(m.ndk) || w >= m.v {
		return 1e-12
	}
	return mixturePredictive(m.Theta(d), func(k int) float64 {
		return (m.nkw[k][w] + m.cfg.Beta) / (m.nk[k] + m.cfg.Beta*float64(m.v))
	})
}
