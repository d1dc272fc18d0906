package topicmodel

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
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
	// The learned hyperparameters, laid out as the snapshot image stores
	// them: alpha[k], betaPrior[k*v+w], deltaPrior[k*u+u'], their per-topic
	// sums, and tau[2k], tau[2k+1] as topic k's Beta(τ_k1, τ_k2)
	// timestamp parameters. TrainUPM writes them; after it returns
	// nothing does, so clones share them and a loaded model aliases the
	// image.
	alpha      []float64
	betaPrior  []float64
	deltaPrior []float64
	betaSum    []float64 // Σ_w betaPrior[k*v+w]
	deltaSum   []float64 // Σ_u deltaPrior[k*u+u]
	tau        []float64
	// docs holds every user document's counts; docID maps a user ID to
	// its index in docs.
	docs  []*upmDoc
	docID map[string]int
}

// upmDoc is one user document's counts, in the layout the snapshot
// image stores them: session and token totals per topic, and the word
// and URL counts as CSR rows over the document's K topics.
type upmDoc struct {
	user    string
	ndkSum  float64   // sessions in the document
	ndk     []float64 // [k] session counts C_dk
	nkwdSum []float64 // [k] word tokens
	nkudSum []float64 // [k] URL tokens
	words   countRows // [k][w] word counts C_kwd
	urls    countRows // [k][u] URL counts C_kud
}

// newDoc returns an empty document that owns its arrays.
func newDoc(user string, k int) *upmDoc {
	sums := make([]float64, 3*k)
	return &upmDoc{
		user: user, ndk: sums[:k], nkwdSum: sums[k : 2*k], nkudSum: sums[2*k:],
		words: countRows{ptr: make([]int64, k+1)},
		urls:  countRows{ptr: make([]int64, k+1)},
	}
}

// countRows is a sparse count matrix over a document's K topic rows:
// row k holds ids idx[ptr[k]:ptr[k+1]] in ascending order, with their
// nonzero counts in val. A loaded document's ptr is a window on the
// image's row pointers and idx/val are the image's whole arrays; a
// trained or folded-in document owns all three, and only such a
// document is ever written.
type countRows struct {
	ptr, idx []int64
	val      []float64
}

// row returns row k's ids and counts.
func (c *countRows) row(k int) ([]int64, []float64) {
	lo, hi := c.ptr[k], c.ptr[k+1]
	return c.idx[lo:hi], c.val[lo:hi]
}

// at returns the count of id j in row k (0 when absent).
func (c *countRows) at(k, j int) float64 {
	ids, vals := c.row(k)
	return countOf(ids, vals, j)
}

// countOf returns the count of id j in a row (0 when absent).
func countOf(ids []int64, vals []float64, j int) float64 {
	if p, ok := search(ids, j); ok {
		return vals[p]
	}
	return 0
}

// search returns the position of id j in the ascending ids, or where
// it would be inserted. A long row is halved down to a short run that
// is then scanned: the scan mispredicts once, at its exit, where each
// halving step mispredicts half the time.
func search(ids []int64, j int) (int, bool) {
	t, lo := int64(j), 0
	for hi := len(ids); hi-lo > 8; {
		if mid := int(uint(lo+hi) >> 1); ids[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for lo < len(ids) && ids[lo] < t {
		lo++
	}
	return lo, lo < len(ids) && ids[lo] == t
}

// add adds delta to the count of id j in row k, inserting the id when
// it is absent. A count that drops to 0 stays in place until dropZeros
// removes it, so a session moved out of and straight back into a topic
// does not shift the row twice.
func (c *countRows) add(k, j int, delta float64) {
	lo := c.ptr[k]
	i, ok := search(c.idx[lo:c.ptr[k+1]], j)
	p := int(lo) + i
	if ok {
		c.val[p] += delta
		return
	}
	c.idx = slices.Insert(c.idx, p, int64(j))
	c.val = slices.Insert(c.val, p, delta)
	for r := k + 1; r < len(c.ptr); r++ {
		c.ptr[r]++
	}
}

// dropZeros removes the zero counts from row k, restoring the rows to
// nonzeros only.
func (c *countRows) dropZeros(k int) {
	lo, hi := int(c.ptr[k]), int(c.ptr[k+1])
	n := lo
	for p := lo; p < hi; p++ {
		if c.val[p] != 0 {
			c.idx[n], c.val[n] = c.idx[p], c.val[p]
			n++
		}
	}
	if n == hi {
		return
	}
	c.idx = append(c.idx[:n], c.idx[hi:]...)
	c.val = append(c.val[:n], c.val[hi:]...)
	for r := k + 1; r < len(c.ptr); r++ {
		c.ptr[r] -= int64(hi - n)
	}
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
			m.addSession(m.docs[d], k, &flat[d][s], 1)
		}
	}

	hyperAt := make(map[int]bool)
	for r := 1; r <= cfg.HyperRounds; r++ {
		hyperAt[cfg.Iterations*r/cfg.HyperRounds-1] = true
	}

	lbeta := make([]float64, cfg.K)
	sweepDoc := func(d int, logw []float64) {
		doc := m.docs[d]
		for s := range flat[d] {
			sess, old := &flat[d][s], z[d][s]
			m.addSession(doc, old, sess, -1)
			for k := 0; k < cfg.K; k++ {
				logw[k] = m.sessionLogWeight(doc, k, sess, lbeta[k])
			}
			k := numeric.SampleLogCategorical(docRngs[d], logw)
			z[d][s] = k
			m.moveSession(doc, old, k, sess)
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
	k := cfg.K
	m := &UPM{
		cfg: cfg, v: c.V(), u: c.U(),
		alpha:      make([]float64, k),
		betaPrior:  make([]float64, k*c.V()),
		deltaPrior: make([]float64, k*c.U()),
		betaSum:    make([]float64, k),
		deltaSum:   make([]float64, k),
		tau:        make([]float64, 2*k),
		docs:       make([]*upmDoc, len(c.Docs)),
		docID:      make(map[string]int, len(c.Docs)),
	}
	for kk := 0; kk < k; kk++ {
		m.alpha[kk] = cfg.InitAlpha
		m.betaSum[kk] = cfg.InitBeta * float64(m.v)
		m.deltaSum[kk] = cfg.InitDelta * float64(m.u)
		m.tau[2*kk], m.tau[2*kk+1] = 1, 1
	}
	for i := range m.betaPrior {
		m.betaPrior[i] = cfg.InitBeta
	}
	for i := range m.deltaPrior {
		m.deltaPrior[i] = cfg.InitDelta
	}
	for d, doc := range c.Docs {
		m.docID[doc.UserID] = d
		m.docs[d] = newDoc(doc.UserID, k)
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

// earlierEqual returns, per position, the number of earlier equal
// tokens. A session holds a handful of tokens, so a scan of the prefix
// is cheaper than a map.
func earlierEqual(tokens []int) []float64 {
	if len(tokens) == 0 {
		return nil
	}
	seen := make([]float64, len(tokens))
	for i, t := range tokens {
		for _, prev := range tokens[:i] {
			if prev == t {
				seen[i]++
			}
		}
	}
	return seen
}

// moveSession adds the session, just removed from topic old, to topic
// k, and drops the zero counts its removal left in row old.
func (m *UPM) moveSession(doc *upmDoc, old, k int, sess *flatSession) {
	m.addSession(doc, k, sess, 1)
	if k != old {
		doc.words.dropZeros(old)
		doc.urls.dropZeros(old)
	}
}

func (m *UPM) addSession(doc *upmDoc, k int, sess *flatSession, delta float64) {
	doc.ndk[k] += delta
	doc.ndkSum += delta
	for _, w := range sess.words {
		doc.words.add(k, w, delta)
		doc.nkwdSum[k] += delta
	}
	for _, u := range sess.urls {
		doc.urls.add(k, u, delta)
		doc.nkudSum[k] += delta
	}
}

// sessionLogWeight is the collapsed Gibbs conditional (Eq. 23) for
// assigning the session to topic k: the doc-mixture factor, the
// sequential Dirichlet-multinomial probability of the session's words
// under φ_kd (prior β_k), likewise for URLs under Ω_kd (prior δ_k), and
// the Beta timestamp density. lbeta is log B(τ_k), from logBetaTau;
// the density is numeric.BetaLogPDF's expression, term for term.
func (m *UPM) sessionLogWeight(doc *upmDoc, k int, sess *flatSession, lbeta float64) float64 {
	lw := math.Log(doc.ndk[k] + m.alpha[k])
	beta, delta := m.betaPrior[k*m.v:(k+1)*m.v], m.deltaPrior[k*m.u:(k+1)*m.u]
	ids, counts := doc.words.row(k)
	wSum := doc.nkwdSum[k]
	for i, w := range sess.words {
		lw += math.Log((countOf(ids, counts, w) + sess.wordsSeen[i] + beta[w]) / (wSum + m.betaSum[k]))
		wSum++
	}
	ids, counts = doc.urls.row(k)
	uSum := doc.nkudSum[k]
	for i, u := range sess.urls {
		lw += math.Log((countOf(ids, counts, u) + sess.urlsSeen[i] + delta[u]) / (uSum + m.deltaSum[k]))
		uSum++
	}
	lw += (m.tau[2*k]-1)*sess.logT + (m.tau[2*k+1]-1)*sess.log1mT - lbeta
	return lw
}

// logBetaTau fills lbeta[k] with log B(τ_k), the normalizer of topic
// k's timestamp density, which only changes when τ is refitted.
func (m *UPM) logBetaTau(lbeta []float64) {
	for k := range lbeta {
		lbeta[k] = numeric.LogBeta(m.tau[2*k], m.tau[2*k+1])
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
		a, b := 1.0, 1.0
		if len(samples[k]) >= 2 {
			a, b = numeric.FitBetaMoments(numeric.Mean(samples[k]), numeric.Variance(samples[k]))
		}
		m.tau[2*k], m.tau[2*k+1] = a, b
	}
}

// Name implements Model.
func (m *UPM) Name() string { return "UPM" }

// K implements Model.
func (m *UPM) K() int { return m.cfg.K }

// NumDocs returns the number of trained user documents.
func (m *UPM) NumDocs() int { return len(m.docs) }

// DocOf returns the document index of a user ID.
func (m *UPM) DocOf(userID string) (int, bool) {
	d, ok := m.docID[userID]
	return d, ok
}

// Theta returns the user's topic profile θ_d (Eq. 30).
func (m *UPM) Theta(d int) []float64 {
	doc := m.docs[d]
	theta := make([]float64, m.cfg.K)
	denom := doc.ndkSum + numeric.Sum(m.alpha)
	for k := range theta {
		theta[k] = (doc.ndk[k] + m.alpha[k]) / denom
	}
	return theta
}

// WordProb returns the posterior-mean per-user topic–word probability
// p(w | k, d) = (C_kwd + β_kw) / (C_k·d + Σβ_k): the user's own usage
// smoothed toward the globally learned topic content.
func (m *UPM) WordProb(d, k, w int) float64 {
	doc := m.docs[d]
	return (doc.words.at(k, w) + m.betaPrior[k*m.v+w]) / (doc.nkwdSum[k] + m.betaSum[k])
}

// PriorWordProb returns the prior-mean word probability β_kw / Σβ_k —
// the literal B(n+β)/B(β) factor of the paper's Eq. 31 for a
// single-occurrence word.
func (m *UPM) PriorWordProb(k, w int) float64 {
	return m.betaPrior[k*m.v+w] / m.betaSum[k]
}

// URLProb returns the posterior-mean per-user topic–URL probability.
func (m *UPM) URLProb(d, k, u int) float64 {
	doc := m.docs[d]
	return (doc.urls.at(k, u) + m.deltaPrior[k*m.u+u]) / (doc.nkudSum[k] + m.deltaSum[k])
}

// Tau returns topic k's Beta timestamp parameters.
func (m *UPM) Tau(k int) (a, b float64) { return m.tau[2*k], m.tau[2*k+1] }

// Alpha returns the learned document-mixture hyperparameters.
func (m *UPM) Alpha() []float64 { return numeric.Clone(m.alpha) }

// TopWords returns the n highest-probability word IDs of topic k under
// the LEARNED global prior β_k (the shared topic content), most
// probable first — the standard topic-interpretation view.
func (m *UPM) TopWords(k, n int) []int {
	return numeric.TopK(m.betaPrior[k*m.v:(k+1)*m.v], n)
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
