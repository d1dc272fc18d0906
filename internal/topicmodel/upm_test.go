package topicmodel

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

func trainedUPM(t *testing.T, c *Corpus) *UPM {
	t.Helper()
	return TrainUPM(c, UPMConfig{K: 5, Iterations: 40, Seed: 2, HyperRounds: 1, HyperIters: 8})
}

func TestUPMThetaIsDistribution(t *testing.T) {
	c := synthCorpus(t)
	m := trainedUPM(t, c)
	for d := 0; d < m.NumDocs(); d++ {
		theta := m.Theta(d)
		if len(theta) != m.K() {
			t.Fatalf("theta len %d", len(theta))
		}
		sum := 0.0
		for _, p := range theta {
			if p <= 0 {
				t.Fatalf("doc %d: nonpositive theta %v", d, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("doc %d: theta sums to %v", d, sum)
		}
	}
}

func TestUPMWordAndURLProbsNormalize(t *testing.T) {
	c := synthCorpus(t)
	m := trainedUPM(t, c)
	for _, d := range []int{0, m.NumDocs() - 1} {
		for k := 0; k < m.K(); k++ {
			sw := 0.0
			for w := 0; w < c.V(); w++ {
				sw += m.WordProb(d, k, w)
			}
			if math.Abs(sw-1) > 1e-6 {
				t.Errorf("Σ_w WordProb(d=%d,k=%d) = %v", d, k, sw)
			}
			su := 0.0
			for u := 0; u < c.U(); u++ {
				su += m.URLProb(d, k, u)
			}
			if math.Abs(su-1) > 1e-6 {
				t.Errorf("Σ_u URLProb(d=%d,k=%d) = %v", d, k, su)
			}
		}
	}
}

func TestUPMPriorWordProbNormalizes(t *testing.T) {
	c := synthCorpus(t)
	m := trainedUPM(t, c)
	for k := 0; k < m.K(); k++ {
		s := 0.0
		for w := 0; w < c.V(); w++ {
			s += m.PriorWordProb(k, w)
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("Σ_w PriorWordProb(k=%d) = %v", k, s)
		}
	}
}

func TestUPMDocOf(t *testing.T) {
	c := synthCorpus(t)
	m := trainedUPM(t, c)
	for d, doc := range c.Docs {
		got, ok := m.DocOf(doc.UserID)
		if !ok || got != d {
			t.Fatalf("DocOf(%s) = %d,%v; want %d", doc.UserID, got, ok, d)
		}
	}
	if _, ok := m.DocOf("nobody"); ok {
		t.Error("DocOf of unknown user succeeded")
	}
}

func TestUPMTauValid(t *testing.T) {
	c := synthCorpus(t)
	m := trainedUPM(t, c)
	for k := 0; k < m.K(); k++ {
		a, b := m.Tau(k)
		if a <= 0 || b <= 0 || math.IsNaN(a) || math.IsNaN(b) {
			t.Errorf("tau[%d] = (%v, %v)", k, a, b)
		}
	}
}

func TestUPMHyperparametersLearned(t *testing.T) {
	// After optimization the alpha vector should have moved off its
	// symmetric initialization (the synthetic users have skewed topic
	// usage) and stayed positive.
	c := synthCorpus(t)
	m := TrainUPM(c, UPMConfig{K: 5, Iterations: 40, Seed: 2, HyperRounds: 2, HyperIters: 10})
	alpha := m.Alpha()
	const init = 2.0 // the UPMConfig default
	moved := false
	for _, a := range alpha {
		if a <= 0 {
			t.Fatalf("alpha = %v: nonpositive entry", alpha)
		}
		if math.Abs(a-init) > 1e-6 {
			moved = true
		}
	}
	if !moved {
		t.Errorf("alpha = %v never moved from init %v", alpha, init)
	}
}

func TestUPMHyperRoundsDisabled(t *testing.T) {
	c := synthCorpus(t)
	m := TrainUPM(c, UPMConfig{K: 5, Iterations: 20, Seed: 2, HyperRounds: -1})
	const init = 2.0 // the UPMConfig default
	for _, a := range m.Alpha() {
		if a != init {
			t.Fatalf("alpha moved with learning disabled: %v", m.Alpha())
		}
	}
}

// The UPM's personalization claim: a user's own frequent word should get
// a higher predictive probability for that user than for a user who
// never types it, under the same model.
func TestUPMPersonalizedWordPreference(t *testing.T) {
	// Two users, same topic structure, disjoint preferred words inside
	// the shared vocabulary.
	c := &Corpus{Words: newTestIndex(8), URLs: newTestIndex(0)}
	mk := func(uid string, preferred []int) Document {
		doc := Document{UserID: uid}
		for s := 0; s < 10; s++ {
			sess := Session{Time: 0.5}
			ev := QueryEvent{URL: NoURL}
			for i := 0; i < 4; i++ {
				ev.Words = append(ev.Words, preferred[(s+i)%len(preferred)])
			}
			sess.Events = append(sess.Events, ev)
			doc.Sessions = append(doc.Sessions, sess)
		}
		return doc
	}
	c.Docs = append(c.Docs, mk("toyota-fan", []int{0, 1, 2, 3}))
	c.Docs = append(c.Docs, mk("ford-fan", []int{4, 5, 6, 7}))
	m := TrainUPM(c, UPMConfig{K: 2, Iterations: 60, Seed: 5, HyperRounds: 1, HyperIters: 8})
	pToyota0 := m.PredictiveWordProb(0, 0)
	pToyota1 := m.PredictiveWordProb(1, 0)
	if pToyota0 <= pToyota1 {
		t.Errorf("user 0's own word: p=%v for them vs p=%v for the other user", pToyota0, pToyota1)
	}
}

func TestUPMPerplexityBeatsLDAWithPersonalVocab(t *testing.T) {
	// When users have strong private word preferences inside shared
	// topics — exactly the structure the UPM models and LDA cannot —
	// the UPM must achieve lower held-out perplexity.
	c := &Corpus{Words: newTestIndex(12), URLs: newTestIndex(0)}
	prefs := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}}
	for u, pref := range prefs {
		doc := Document{UserID: string(rune('a' + u))}
		for s := 0; s < 14; s++ {
			sess := Session{Time: 0.5}
			ev := QueryEvent{URL: NoURL}
			for i := 0; i < 4; i++ {
				ev.Words = append(ev.Words, pref[(s+i)%3])
			}
			sess.Events = append(sess.Events, ev)
			doc.Sessions = append(doc.Sessions, sess)
		}
		c.Docs = append(c.Docs, doc)
	}
	obs, held := c.SplitPrefix(0.7)
	upm := TrainUPM(obs, UPMConfig{K: 2, Iterations: 50, Seed: 6, HyperRounds: 1, HyperIters: 8})
	lda := TrainLDA(obs, TrainConfig{K: 2, Iterations: 50, Seed: 6})
	pu := HeldOutPerplexity(upm, held, len(obs.Docs))
	pl := HeldOutPerplexity(lda, held, len(obs.Docs))
	if pu >= pl {
		t.Errorf("UPM perplexity %v not below LDA %v on personal-vocab corpus", pu, pl)
	}
}

// upmFingerprint is the FNV-1a hash of the bit patterns of everything a
// trained UPM serves: every θ_d, every β_k and δ_k prior, τ_k and α.
func upmFingerprint(m *UPM) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(vs ...float64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for d := 0; d < m.NumDocs(); d++ {
		put(m.Theta(d)...)
	}
	for k := 0; k < m.K(); k++ {
		put(m.betaPrior[k*m.v : (k+1)*m.v]...)
		put(m.deltaPrior[k*m.u : (k+1)*m.u]...)
		put(m.Tau(k))
	}
	put(m.alpha...)
	return h.Sum64()
}

// TestUPMBitIdenticalToRecorded pins the sampler's arithmetic: the
// constants were recorded before the Gibbs sweep moved from per-call
// Session.Words()/URLs() slices and bump maps to sessions flattened
// once, so any change of operand or operation order shows up here.
func TestUPMBitIdenticalToRecorded(t *testing.T) {
	c := synthCorpus(t)
	m := trainedUPM(t, c)
	if got, want := upmFingerprint(m), uint64(0x81e0d4e3e9eeb869); got != want {
		t.Errorf("TrainUPM fingerprint %#x, recorded %#x", got, want)
	}
	m.FoldIn("newcomer", c.Docs[3].Sessions, 30, 99)
	m.FoldIn(c.Docs[1].UserID, c.Docs[5].Sessions, 0, 7) // replaces a trained user
	if got, want := upmFingerprint(m), uint64(0x98b04f0e4ee90b2c); got != want {
		t.Errorf("FoldIn fingerprint %#x, recorded %#x", got, want)
	}
}
