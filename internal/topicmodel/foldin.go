package topicmodel

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/numeric"
	"repro/internal/querylog"
)

// FoldIn infers a profile for a document that was NOT part of training
// — the "new user" path of online personalization. It runs Gibbs
// sampling over the new document's session topics only, holding the
// learned hyperparameters (α, β, δ, τ) fixed: the global topic content
// carried by β/δ anchors the topics, and the new user's own counts
// personalize the emissions exactly as for trained users.
//
// The model is extended in place: the returned document index d serves
// Theta(d), WordProb(d, …) and PredictiveWordProb(d, …) like any
// trained document, and DocOf(userID) resolves it. Folding in a user
// ID that already exists replaces that user's document statistics.
//
// iterations is the number of Gibbs sweeps over the new document
// (default 20 when ≤ 0).
func (m *UPM) FoldIn(userID string, sessions []Session, iterations int, seed int64) int {
	if iterations <= 0 {
		iterations = 20
	}
	// Fold-in mutates per-document counts: an arena-backed (read-only)
	// model must thaw into the mutable form first. The engine only ever
	// folds into clones, so serving snapshots stay flat.
	m.thaw()
	rng := rand.New(rand.NewSource(seed))

	d, exists := m.docID[userID]
	if !exists {
		d = len(m.ndk)
		m.docID[userID] = d
		m.ndk = append(m.ndk, make([]float64, m.cfg.K))
		m.ndkSum = append(m.ndkSum, 0)
		m.nkwd = append(m.nkwd, make([]map[int]float64, m.cfg.K))
		m.nkwdSum = append(m.nkwdSum, make([]float64, m.cfg.K))
		m.nkud = append(m.nkud, make([]map[int]float64, m.cfg.K))
		m.nkudSum = append(m.nkudSum, make([]float64, m.cfg.K))
		for k := 0; k < m.cfg.K; k++ {
			m.nkwd[d][k] = make(map[int]float64)
			m.nkud[d][k] = make(map[int]float64)
		}
	} else {
		// Replace: clear the old statistics.
		for k := 0; k < m.cfg.K; k++ {
			m.ndk[d][k] = 0
			m.nkwd[d][k] = make(map[int]float64)
			m.nkwdSum[d][k] = 0
			m.nkud[d][k] = make(map[int]float64)
			m.nkudSum[d][k] = 0
		}
		m.ndkSum[d] = 0
	}

	// Drop tokens outside the trained vocabularies: the fold-in cannot
	// grow β/δ, and unseen words carry no topic signal anyway.
	clean := make([]flatSession, 0, len(sessions))
	for _, sess := range sessions {
		ns := Session{Time: clampUnit(sess.Time)}
		for _, ev := range sess.Events {
			ne := QueryEvent{URL: NoURL}
			for _, w := range ev.Words {
				if w >= 0 && w < m.v {
					ne.Words = append(ne.Words, w)
				}
			}
			if ev.URL >= 0 && ev.URL < m.u {
				ne.URL = ev.URL
			}
			if len(ne.Words) > 0 || ne.URL != NoURL {
				ns.Events = append(ns.Events, ne)
			}
		}
		if len(ns.Events) > 0 {
			clean = append(clean, flattenSession(ns))
		}
	}
	if len(clean) == 0 {
		return d
	}

	// Greedy anchored initialization: before the document accumulates
	// its own counts, assign each session to the topic the LEARNED
	// priors (β, δ, τ) explain best. Random initialization would let
	// the per-document emissions self-reinforce an arbitrary labeling;
	// anchoring first keeps the fold-in in the trained topic space.
	z := make([]int, len(clean))
	logw := make([]float64, m.cfg.K)
	lbeta := make([]float64, m.cfg.K)
	m.logBetaTau(lbeta)
	for s, sess := range clean {
		for k := 0; k < m.cfg.K; k++ {
			logw[k] = m.sessionLogWeight(d, k, sess, lbeta[k])
		}
		best := 0
		for k := 1; k < m.cfg.K; k++ {
			if logw[k] > logw[best] {
				best = k
			}
		}
		z[s] = best
		m.addSession(d, best, sess, 1)
	}
	for it := 0; it < iterations; it++ {
		for s, sess := range clean {
			old := z[s]
			m.addSession(d, old, sess, -1)
			for k := 0; k < m.cfg.K; k++ {
				logw[k] = m.sessionLogWeight(d, k, sess, lbeta[k])
			}
			k := numeric.SampleLogCategorical(rng, logw)
			z[s] = k
			m.addSession(d, k, sess, 1)
		}
	}
	return d
}

func clampUnit(t float64) float64 {
	if math.IsNaN(t) || t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

// SessionsForFoldIn converts sessionized query-log data into the
// model-facing session format using a corpus's EXISTING vocabularies
// (tokens never seen in training are marked out-of-vocabulary and
// dropped by FoldIn). normTime may be nil to use the corpus's own time
// range.
func SessionsForFoldIn(c *Corpus, sessions []querylog.Session, normTime func(time.Time) float64) []Session {
	if normTime == nil {
		normTime = c.NormTime
	}
	out := make([]Session, 0, len(sessions))
	for _, s := range sessions {
		ns := Session{Time: normTime(s.Entries[0].Time)}
		for _, e := range s.Entries {
			ev := QueryEvent{URL: NoURL}
			for _, w := range querylog.Tokenize(e.Query) {
				if id, ok := c.Words.Lookup(w); ok {
					ev.Words = append(ev.Words, id)
				}
			}
			if e.ClickedURL != "" {
				if id, ok := c.URLs.Lookup(e.ClickedURL); ok {
					ev.URL = id
				}
			}
			if len(ev.Words) > 0 || ev.URL != NoURL {
				ns.Events = append(ns.Events, ev)
			}
		}
		if len(ns.Events) > 0 {
			out = append(out, ns)
		}
	}
	return out
}
