package topicmodel

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/numeric"
)

// UPM is the paper's User Profiling Model (Section V-A, Algorithm 2):
//
//   - each user document d has a topic mixture θ_d ~ Dir(α);
//   - every SESSION draws one topic z ~ Mult(θ_d) — words and URLs in a
//     session are generated from the same topic;
//   - words come from per-document, per-topic multinomials
//     φ_kd ~ Dir(β_k) and URLs from Ω_kd ~ Dir(δ_k): the priors β_k, δ_k
//     are LEARNED vectors that carry the global topic content (the role
//     LDA's φ plays) while the per-document counts capture each user's
//     idiosyncratic word/URL usage (the "Toyota vs Ford" effect);
//   - session timestamps come from per-topic Beta(τ_k) distributions
//     (web dynamics, as in Topics-over-Time).
//
// Inference alternates collapsed Gibbs sampling of session topics
// (Eq. 23) with hyperparameter optimization of α, β, δ by L-BFGS on the
// complete likelihood (Eqs. 25–27) and method-of-moments Beta updates
// (Eqs. 28–29).
type UPM struct {
	cfg  UPMConfig
	v, u int
	// alpha[k], betaPrior[k][w], deltaPrior[k][u] are the learned
	// hyperparameters.
	alpha      []float64
	betaPrior  [][]float64
	deltaPrior [][]float64
	betaSum    []float64 // Σ_w betaPrior[k][w]
	deltaSum   []float64 // Σ_u deltaPrior[k][u]
	// tau[k] are the per-topic Beta(τ_k1, τ_k2) timestamp parameters.
	tau [][2]float64
	// Counts: sessions per doc-topic; words/URLs per topic-doc.
	ndk     [][]float64         // [d][k] session counts C_dk
	ndkSum  []float64           // sessions per doc
	nkwd    [][]map[int]float64 // [d][k] word counts C_kwd (sparse)
	nkwdSum [][]float64         // [d][k] total word tokens
	nkud    [][]map[int]float64 // [d][k] URL counts C_kud (sparse)
	nkudSum [][]float64         // [d][k] total URL tokens
	docID   map[string]int

	// flat, when non-nil, is the arena-backed read-only form (see
	// flat.go): the map/slice fields above are empty and every serving
	// accessor reads the flat arrays instead. Mutation paths thaw first.
	flat *upmFlat
}

// UPMConfig tunes UPM training.
type UPMConfig struct {
	// K is the topic count (default 10).
	K int
	// Iterations is the number of Gibbs sweeps (default 100).
	Iterations int
	// InitAlpha, InitBeta, InitDelta initialize the hyperparameters
	// (defaults 2, 0.1, 0.1 — user documents have few sessions, so a
	// small α keeps profiles from smearing). They are subsequently
	// learned when HyperRounds > 0.
	InitAlpha, InitBeta, InitDelta float64
	// HyperRounds is how many hyperparameter-optimization rounds are
	// interleaved with sampling (default 2: midway and at the end; 0
	// disables learning, degenerating to fixed symmetric priors).
	HyperRounds int
	// HyperIters bounds each L-BFGS run (default 15).
	HyperIters int
	// Seed drives the sampler.
	Seed int64
}

func (c UPMConfig) withDefaults() UPMConfig {
	if c.K <= 0 {
		c.K = 10
	}
	if c.Iterations <= 0 {
		c.Iterations = 100
	}
	if c.InitAlpha <= 0 {
		c.InitAlpha = 2
	}
	if c.InitBeta <= 0 {
		c.InitBeta = 0.1
	}
	if c.InitDelta <= 0 {
		c.InitDelta = 0.1
	}
	if c.HyperRounds < 0 {
		c.HyperRounds = 0
	} else if c.HyperRounds == 0 {
		c.HyperRounds = 2
	}
	if c.HyperIters <= 0 {
		c.HyperIters = 15
	}
	return c
}

// TrainUPM fits the UPM on the corpus, sweeping documents on one
// goroutine per core (runtime.GOMAXPROCS). Unlike LDA — whose
// topic–word counts are global, making parallel Gibbs approximate (the
// paper's [31]) — every UPM count is per-document and hyperparameters
// only change at sweep barriers, so the document loop is EXACTLY
// parallel: every document owns an independent RNG stream, and the
// trained model is bit-identical at any core count.
func TrainUPM(c *Corpus, cfg UPMConfig) *UPM {
	cfg = cfg.withDefaults()
	m := newUPM(c, cfg)

	// Per-document RNG streams: the sampling of document d is a pure
	// function of (seed, d, corpus), independent of worker scheduling.
	docRngs := make([]*rand.Rand, len(c.Docs))
	for d := range docRngs {
		docRngs[d] = rand.New(rand.NewSource(cfg.Seed<<20 + int64(d)))
	}

	// Session-level assignments z[d][s], over sessions flattened once:
	// every sweep reads each session K + 2 times.
	z := make([][]int, len(c.Docs))
	flat := make([][]flatSession, len(c.Docs))
	for d, doc := range c.Docs {
		z[d] = make([]int, len(doc.Sessions))
		flat[d] = make([]flatSession, len(doc.Sessions))
		for s, sess := range doc.Sessions {
			flat[d][s] = flattenSession(sess)
			k := docRngs[d].Intn(cfg.K)
			z[d][s] = k
			m.addSession(d, k, flat[d][s], 1)
		}
	}

	hyperAt := make(map[int]bool)
	for r := 1; r <= cfg.HyperRounds; r++ {
		hyperAt[cfg.Iterations*r/cfg.HyperRounds-1] = true
	}

	lbeta := make([]float64, cfg.K)
	sweepDoc := func(d int, logw []float64) {
		for s, sess := range flat[d] {
			old := z[d][s]
			m.addSession(d, old, sess, -1)
			for k := 0; k < cfg.K; k++ {
				logw[k] = m.sessionLogWeight(d, k, sess, lbeta[k])
			}
			k := numeric.SampleLogCategorical(docRngs[d], logw)
			z[d][s] = k
			m.addSession(d, k, sess, 1)
		}
	}

	for it := 0; it < cfg.Iterations; it++ {
		m.logBetaTau(lbeta)
		parallelFor(len(c.Docs), func() func(d int) {
			logw := make([]float64, cfg.K)
			return func(d int) { sweepDoc(d, logw) }
		})
		m.refitTau(c, z)
		if hyperAt[it] {
			m.optimizeHyperparameters()
		}
	}
	return m
}

// parallelFor calls body(i) for every i in [0, n) on one goroutine per
// core (at most n), handing out indices one at a time; each goroutine
// gets its own body from newBody, so per-goroutine scratch lives in its
// closure. With one core or one index it runs on the calling goroutine.
func parallelFor(n int, newBody func() func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		body := newBody()
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := int64(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := newBody()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				body(i)
			}
		}()
	}
	wg.Wait()
}

func newUPM(c *Corpus, cfg UPMConfig) *UPM {
	m := &UPM{
		cfg: cfg, v: c.V(), u: c.U(),
		alpha:      make([]float64, cfg.K),
		betaPrior:  make([][]float64, cfg.K),
		deltaPrior: make([][]float64, cfg.K),
		betaSum:    make([]float64, cfg.K),
		deltaSum:   make([]float64, cfg.K),
		tau:        make([][2]float64, cfg.K),
		ndk:        make([][]float64, len(c.Docs)),
		ndkSum:     make([]float64, len(c.Docs)),
		nkwd:       make([][]map[int]float64, len(c.Docs)),
		nkwdSum:    make([][]float64, len(c.Docs)),
		nkud:       make([][]map[int]float64, len(c.Docs)),
		nkudSum:    make([][]float64, len(c.Docs)),
		docID:      make(map[string]int, len(c.Docs)),
	}
	for k := 0; k < cfg.K; k++ {
		m.alpha[k] = cfg.InitAlpha
		m.betaPrior[k] = make([]float64, m.v)
		m.deltaPrior[k] = make([]float64, m.u)
		for w := range m.betaPrior[k] {
			m.betaPrior[k][w] = cfg.InitBeta
		}
		for u := range m.deltaPrior[k] {
			m.deltaPrior[k][u] = cfg.InitDelta
		}
		m.betaSum[k] = cfg.InitBeta * float64(m.v)
		m.deltaSum[k] = cfg.InitDelta * float64(m.u)
		m.tau[k] = [2]float64{1, 1}
	}
	for d, doc := range c.Docs {
		m.docID[doc.UserID] = d
		m.ndk[d] = make([]float64, cfg.K)
		m.nkwd[d] = make([]map[int]float64, cfg.K)
		m.nkwdSum[d] = make([]float64, cfg.K)
		m.nkud[d] = make([]map[int]float64, cfg.K)
		m.nkudSum[d] = make([]float64, cfg.K)
		for k := 0; k < cfg.K; k++ {
			m.nkwd[d][k] = make(map[int]float64)
			m.nkud[d][k] = make(map[int]float64)
		}
	}
	return m
}

// flatSession is a Session as the sampler reads it: the word and URL
// tokens in order and, for each position, how many earlier tokens of the
// session equal it — the count the sequential Dirichlet-multinomial of
// Eq. 23 adds to a token's own-topic count when that position is
// reached.
//
// logT and log1mT are log t and log(1−t) of the session's timestamp,
// clamped as numeric.BetaLogPDF clamps it: t never changes, so the Beta
// density's logarithms are taken once, not once per topic and sweep.
type flatSession struct {
	words, urls         []int
	wordsSeen, urlsSeen []float64
	logT, log1mT        float64
}

func flattenSession(s Session) flatSession {
	const eps = 1e-9
	t := min(max(s.Time, eps), 1-eps)
	fs := flatSession{words: s.Words(), urls: s.URLs(), logT: math.Log(t), log1mT: math.Log(1 - t)}
	fs.wordsSeen = earlierEqual(fs.words)
	fs.urlsSeen = earlierEqual(fs.urls)
	return fs
}

// earlierEqual returns, per position, the number of earlier equal tokens.
func earlierEqual(tokens []int) []float64 {
	if len(tokens) == 0 {
		return nil
	}
	seen := make([]float64, len(tokens))
	count := make(map[int]float64, len(tokens))
	for i, t := range tokens {
		seen[i] = count[t]
		count[t]++
	}
	return seen
}

func (m *UPM) addSession(d, k int, sess flatSession, delta float64) {
	m.ndk[d][k] += delta
	m.ndkSum[d] += delta
	for _, w := range sess.words {
		m.nkwd[d][k][w] += delta
		if m.nkwd[d][k][w] == 0 {
			delete(m.nkwd[d][k], w)
		}
		m.nkwdSum[d][k] += delta
	}
	for _, u := range sess.urls {
		m.nkud[d][k][u] += delta
		if m.nkud[d][k][u] == 0 {
			delete(m.nkud[d][k], u)
		}
		m.nkudSum[d][k] += delta
	}
}

// sessionLogWeight is the collapsed Gibbs conditional (Eq. 23) for
// assigning the session to topic k: the doc-mixture factor, the
// sequential Dirichlet-multinomial probability of the session's words
// under φ_kd (prior β_k), likewise for URLs under Ω_kd (prior δ_k), and
// the Beta timestamp density. lbeta is log B(τ_k), from logBetaTau;
// the density is numeric.BetaLogPDF's expression, term for term.
func (m *UPM) sessionLogWeight(d, k int, sess flatSession, lbeta float64) float64 {
	lw := math.Log(m.ndk[d][k] + m.alpha[k])
	wSum := m.nkwdSum[d][k]
	for i, w := range sess.words {
		lw += math.Log((m.nkwd[d][k][w] + sess.wordsSeen[i] + m.betaPrior[k][w]) / (wSum + m.betaSum[k]))
		wSum++
	}
	uSum := m.nkudSum[d][k]
	for i, u := range sess.urls {
		lw += math.Log((m.nkud[d][k][u] + sess.urlsSeen[i] + m.deltaPrior[k][u]) / (uSum + m.deltaSum[k]))
		uSum++
	}
	lw += (m.tau[k][0]-1)*sess.logT + (m.tau[k][1]-1)*sess.log1mT - lbeta
	return lw
}

// logBetaTau fills lbeta[k] with log B(τ_k), the normalizer of topic
// k's timestamp density, which only changes when τ is refitted.
func (m *UPM) logBetaTau(lbeta []float64) {
	for k := range lbeta {
		lbeta[k] = numeric.LogBeta(m.tau[k][0], m.tau[k][1])
	}
}

// refitTau re-estimates τ_k (Eqs. 28–29) from the timestamps of
// sessions currently on topic k.
func (m *UPM) refitTau(c *Corpus, z [][]int) {
	samples := make([][]float64, m.cfg.K)
	for d, doc := range c.Docs {
		for s := range doc.Sessions {
			k := z[d][s]
			samples[k] = append(samples[k], doc.Sessions[s].Time)
		}
	}
	for k := range samples {
		if len(samples[k]) < 2 {
			m.tau[k] = [2]float64{1, 1}
			continue
		}
		a, b := numeric.FitBetaMoments(numeric.Mean(samples[k]), numeric.Variance(samples[k]))
		m.tau[k] = [2]float64{a, b}
	}
}

// Name implements Model.
func (m *UPM) Name() string { return "UPM" }

// K implements Model.
func (m *UPM) K() int { return m.cfg.K }

// NumDocs returns the number of trained user documents.
func (m *UPM) NumDocs() int {
	if f := m.flat; f != nil {
		return f.d
	}
	return len(m.ndk)
}

// DocOf returns the document index of a user ID.
func (m *UPM) DocOf(userID string) (int, bool) {
	if f := m.flat; f != nil {
		return f.docs.Lookup(userID)
	}
	d, ok := m.docID[userID]
	return d, ok
}

// Theta returns the user's topic profile θ_d (Eq. 30).
func (m *UPM) Theta(d int) []float64 {
	theta := make([]float64, m.cfg.K)
	if f := m.flat; f != nil {
		denom := f.ndkSum[d] + numeric.Sum(f.alpha)
		for k := range theta {
			theta[k] = (f.ndk[d*f.k+k] + f.alpha[k]) / denom
		}
		return theta
	}
	denom := m.ndkSum[d] + numeric.Sum(m.alpha)
	for k := range theta {
		theta[k] = (m.ndk[d][k] + m.alpha[k]) / denom
	}
	return theta
}

// WordProb returns the posterior-mean per-user topic–word probability
// p(w | k, d) = (C_kwd + β_kw) / (C_k·d + Σβ_k): the user's own usage
// smoothed toward the globally learned topic content.
func (m *UPM) WordProb(d, k, w int) float64 {
	if f := m.flat; f != nil {
		r := d*f.k + k
		return (csrAt(f.nkwdPtr, f.nkwdIdx, f.nkwdVal, r, w) + f.betaPrior[k*f.v+w]) /
			(f.nkwdSum[r] + f.betaSum[k])
	}
	return (m.nkwd[d][k][w] + m.betaPrior[k][w]) / (m.nkwdSum[d][k] + m.betaSum[k])
}

// PriorWordProb returns the prior-mean word probability β_kw / Σβ_k —
// the literal B(n+β)/B(β) factor of the paper's Eq. 31 for a
// single-occurrence word.
func (m *UPM) PriorWordProb(k, w int) float64 {
	if f := m.flat; f != nil {
		return f.betaPrior[k*f.v+w] / f.betaSum[k]
	}
	return m.betaPrior[k][w] / m.betaSum[k]
}

// URLProb returns the posterior-mean per-user topic–URL probability.
func (m *UPM) URLProb(d, k, u int) float64 {
	if f := m.flat; f != nil {
		r := d*f.k + k
		return (csrAt(f.nkudPtr, f.nkudIdx, f.nkudVal, r, u) + f.deltaPrior[k*f.u+u]) /
			(f.nkudSum[r] + f.deltaSum[k])
	}
	return (m.nkud[d][k][u] + m.deltaPrior[k][u]) / (m.nkudSum[d][k] + m.deltaSum[k])
}

// Tau returns topic k's Beta timestamp parameters.
func (m *UPM) Tau(k int) (a, b float64) {
	if f := m.flat; f != nil {
		return f.tau[2*k], f.tau[2*k+1]
	}
	return m.tau[k][0], m.tau[k][1]
}

// Alpha returns the learned document-mixture hyperparameters.
func (m *UPM) Alpha() []float64 {
	if f := m.flat; f != nil {
		return numeric.Clone(f.alpha)
	}
	return numeric.Clone(m.alpha)
}

// TopWords returns the n highest-probability word IDs of topic k under
// the LEARNED global prior β_k (the shared topic content), most
// probable first — the standard topic-interpretation view.
func (m *UPM) TopWords(k, n int) []int {
	if f := m.flat; f != nil {
		return numeric.TopK(f.betaPrior[k*f.v:(k+1)*f.v], n)
	}
	return numeric.TopK(m.betaPrior[k], n)
}

// TopWordsFor returns the n words of topic k the USER d emphasizes
// most, by posterior probability — the per-user view of the same topic
// (the "Toyota vs Ford" lens).
func (m *UPM) TopWordsFor(d, k, n int) []int {
	scores := make([]float64, m.v)
	for w := range scores {
		scores[w] = m.WordProb(d, k, w)
	}
	return numeric.TopK(scores, n)
}

// PredictiveWordProb implements Model.
func (m *UPM) PredictiveWordProb(d, w int) float64 {
	if d >= m.NumDocs() || w >= m.v {
		return 1e-12
	}
	theta := m.Theta(d)
	return mixturePredictive(theta, func(k int) float64 { return m.WordProb(d, k, w) })
}
