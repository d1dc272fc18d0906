package topicmodel

import (
	"math"
	"math/rand"

	"repro/internal/numeric"
)

// PTM implements the personalization topic models of Carman et al.
// (the paper's [21]) at the granularity their query-log models use: one
// latent topic per QUERY (not per word token), with user documents.
// PTM1 emits only the query's words from the topic; PTM2 additionally
// emits the query's clicked URL from a shared topic–URL distribution.
type PTM struct {
	cfg      TrainConfig
	withURLs bool // false = PTM1, true = PTM2
	v, u     int
	ndk      [][]float64 // queries of doc d on topic k
	nkw      [][]float64 // words on topic k (corpus-wide)
	nk       []float64   // word tokens on topic k
	nku      [][]float64 // URLs on topic k (corpus-wide, PTM2)
	nkuSum   []float64   // URL tokens on topic k (PTM2)
	ndSum    []float64   // query count of doc d
}

// TrainPTM1 fits the words-only query-topic model.
func TrainPTM1(c *Corpus, cfg TrainConfig) *PTM { return trainPTM(c, cfg, false) }

// TrainPTM2 fits the words+URL query-topic model.
func TrainPTM2(c *Corpus, cfg TrainConfig) *PTM { return trainPTM(c, cfg, true) }

func trainPTM(c *Corpus, cfg TrainConfig, withURLs bool) *PTM {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &PTM{cfg: cfg, withURLs: withURLs, v: c.V(), u: c.U()}
	m.ndk = make([][]float64, len(c.Docs))
	m.ndSum = make([]float64, len(c.Docs))
	for d := range m.ndk {
		m.ndk[d] = make([]float64, cfg.K)
	}
	m.nkw = make([][]float64, cfg.K)
	m.nk = make([]float64, cfg.K)
	m.nku = make([][]float64, cfg.K)
	m.nkuSum = make([]float64, cfg.K)
	for k := 0; k < cfg.K; k++ {
		m.nkw[k] = make([]float64, m.v)
		m.nku[k] = make([]float64, m.u)
	}

	// One topic per query event: z[d][s][e].
	z := make([][][]int, len(c.Docs))
	for d, doc := range c.Docs {
		z[d] = make([][]int, len(doc.Sessions))
		for s, sess := range doc.Sessions {
			z[d][s] = make([]int, len(sess.Events))
			for e, ev := range sess.Events {
				k := rng.Intn(cfg.K)
				z[d][s][e] = k
				m.addEvent(d, k, ev, 1)
			}
		}
	}

	logw := make([]float64, cfg.K)
	for it := 0; it < cfg.Iterations; it++ {
		for d, doc := range c.Docs {
			for s, sess := range doc.Sessions {
				for e, ev := range sess.Events {
					old := z[d][s][e]
					m.addEvent(d, old, ev, -1)
					seen := earlierEqual(ev.Words)
					for k := 0; k < cfg.K; k++ {
						lw := math.Log(m.ndk[d][k] + cfg.Alpha)
						// Sequentially integrate the query's words
						// against the topic's current counts.
						wSum := m.nk[k]
						for i, w := range ev.Words {
							lw += math.Log((m.nkw[k][w] + seen[i] + cfg.Beta) / (wSum + cfg.Beta*float64(m.v)))
							wSum++
						}
						if m.withURLs && ev.URL != NoURL {
							lw += math.Log((m.nku[k][ev.URL] + cfg.Delta) / (m.nkuSum[k] + cfg.Delta*float64(m.u)))
						}
						logw[k] = lw
					}
					k := numeric.SampleLogCategorical(rng, logw)
					z[d][s][e] = k
					m.addEvent(d, k, ev, 1)
				}
			}
		}
	}
	return m
}

func (m *PTM) addEvent(d, k int, ev QueryEvent, delta float64) {
	m.ndk[d][k] += delta
	m.ndSum[d] += delta
	for _, w := range ev.Words {
		m.nkw[k][w] += delta
		m.nk[k] += delta
	}
	if m.withURLs && ev.URL != NoURL {
		m.nku[k][ev.URL] += delta
		m.nkuSum[k] += delta
	}
}

// Name implements Model.
func (m *PTM) Name() string {
	if m.withURLs {
		return "PTM2"
	}
	return "PTM1"
}

// K implements Model.
func (m *PTM) K() int { return m.cfg.K }

// Theta returns the smoothed document–topic distribution.
func (m *PTM) Theta(d int) []float64 {
	theta := make([]float64, m.cfg.K)
	denom := m.ndSum[d] + m.cfg.Alpha*float64(m.cfg.K)
	for k := range theta {
		theta[k] = (m.ndk[d][k] + m.cfg.Alpha) / denom
	}
	return theta
}

// Phi returns the smoothed topic–word probability.
func (m *PTM) Phi(k, w int) float64 {
	return (m.nkw[k][w] + m.cfg.Beta) / (m.nk[k] + m.cfg.Beta*float64(m.v))
}

// PhiURL returns the smoothed topic–URL probability (PTM2).
func (m *PTM) PhiURL(k, u int) float64 {
	return (m.nku[k][u] + m.cfg.Delta) / (m.nkuSum[k] + m.cfg.Delta*float64(m.u))
}

// PredictiveWordProb implements Model.
func (m *PTM) PredictiveWordProb(d, w int) float64 {
	if d >= len(m.ndk) || w >= m.v {
		return 1e-12
	}
	return mixturePredictive(m.Theta(d), func(k int) float64 { return m.Phi(k, w) })
}
