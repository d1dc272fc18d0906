package topicmodel

import (
	"math"
	"testing"
)

// flatUPM round-trips a trained model through its flat state image.
func flatUPM(t *testing.T, m *UPM) *UPM {
	t.Helper()
	fm, err := UPMFromState(m.State())
	if err != nil {
		t.Fatal(err)
	}
	return fm
}

// assertUPMParity checks that every serving accessor agrees between two
// models over the full (doc, topic, word, URL) space of the corpus.
func assertUPMParity(t *testing.T, c *Corpus, a, b *UPM) {
	t.Helper()
	if a.K() != b.K() || a.NumDocs() != b.NumDocs() {
		t.Fatalf("shape: K %d/%d docs %d/%d", a.K(), b.K(), a.NumDocs(), b.NumDocs())
	}
	al, bl := a.Alpha(), b.Alpha()
	for k := range al {
		if al[k] != bl[k] {
			t.Fatalf("Alpha[%d]: %v vs %v", k, al[k], bl[k])
		}
		aa, ab := a.Tau(k)
		ba, bb := b.Tau(k)
		if aa != ba || ab != bb {
			t.Fatalf("Tau(%d): %v,%v vs %v,%v", k, aa, ab, ba, bb)
		}
	}
	for _, doc := range c.Docs {
		da, oka := a.DocOf(doc.UserID)
		db, okb := b.DocOf(doc.UserID)
		if !oka || !okb || da != db {
			t.Fatalf("DocOf(%q): %d,%v vs %d,%v", doc.UserID, da, oka, db, okb)
		}
		ta, tb := a.Theta(da), b.Theta(db)
		for k := range ta {
			if ta[k] != tb[k] {
				t.Fatalf("Theta(%d)[%d]: %v vs %v", da, k, ta[k], tb[k])
			}
		}
		for k := 0; k < a.K(); k++ {
			for w := 0; w < c.V(); w++ {
				if pa, pb := a.WordProb(da, k, w), b.WordProb(da, k, w); pa != pb {
					t.Fatalf("WordProb(%d,%d,%d): %v vs %v", da, k, w, pa, pb)
				}
			}
			for u := 0; u < c.U(); u++ {
				if pa, pb := a.URLProb(da, k, u), b.URLProb(da, k, u); pa != pb {
					t.Fatalf("URLProb(%d,%d,%d): %v vs %v", da, k, u, pa, pb)
				}
			}
		}
		for w := 0; w < c.V(); w++ {
			pa, pb := a.PredictiveWordProb(da, w), b.PredictiveWordProb(da, w)
			if math.Abs(pa-pb) > 1e-15 {
				t.Fatalf("PredictiveWordProb(%d,%d): %v vs %v", da, w, pa, pb)
			}
		}
	}
	for k := 0; k < a.K(); k++ {
		for w := 0; w < c.V(); w++ {
			if pa, pb := a.PriorWordProb(k, w), b.PriorWordProb(k, w); pa != pb {
				t.Fatalf("PriorWordProb(%d,%d): %v vs %v", k, w, pa, pb)
			}
		}
		ta, tb := a.TopWords(k, 5), b.TopWords(k, 5)
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("TopWords(%d): %v vs %v", k, ta, tb)
			}
		}
	}
}

func TestUPMFlatRoundTripParity(t *testing.T) {
	c := synthCorpus(t)
	m := trainedUPM(t, c)
	fm := flatUPM(t, m)
	assertUPMParity(t, c, m, fm)
}

func TestUPMFlatStateOfFlatModel(t *testing.T) {
	// State() of an arena-backed model must reproduce the same image.
	c := synthCorpus(t)
	m := trainedUPM(t, c)
	fm := flatUPM(t, m)
	fm2 := flatUPM(t, fm)
	assertUPMParity(t, c, fm, fm2)
}

// TestUPMCloneSharesDocuments pins the Clone contract: a clone shares
// every document and hyperparameter array with the original, and
// FoldIn on the clone replaces or appends a document in the clone only.
func TestUPMCloneSharesDocuments(t *testing.T) {
	c := synthCorpus(t)
	m := trainedUPM(t, c)
	for name, base := range map[string]*UPM{"trained": m, "loaded": flatUPM(t, m)} {
		cl := base.Clone()
		assertUPMParity(t, c, base, cl)
		for d := range base.docs {
			if cl.docs[d] != base.docs[d] {
				t.Fatalf("%s: clone copied document %d", name, d)
			}
		}
		if &cl.betaPrior[0] != &base.betaPrior[0] || &cl.alpha[0] != &base.alpha[0] {
			t.Fatalf("%s: clone copied the hyperparameters", name)
		}
		before := base.State()
		old := base.docs[0]
		d := cl.FoldIn(c.Docs[0].UserID, c.Docs[2].Sessions, 5, 7)
		nd := cl.FoldIn("newcomer", c.Docs[3].Sessions, 5, 8)
		if d != 0 || cl.docs[0] == old || base.docs[0] != old {
			t.Fatalf("%s: fold-in of an existing user did not replace the clone's document only", name)
		}
		if nd != base.NumDocs() || cl.NumDocs() != base.NumDocs()+1 {
			t.Fatalf("%s: new user at %d, clone has %d docs, original %d", name, nd, cl.NumDocs(), base.NumDocs())
		}
		if _, ok := base.DocOf("newcomer"); ok {
			t.Fatalf("%s: fold-in on the clone registered the user in the original", name)
		}
		if stateHash(base.State()) != stateHash(before) {
			t.Fatalf("%s: fold-in on the clone changed the original", name)
		}
		for dd := 1; dd < base.NumDocs(); dd++ {
			if cl.docs[dd] != base.docs[dd] {
				t.Fatalf("%s: fold-in replaced untouched document %d", name, dd)
			}
		}
	}
}

func TestUPMFlatFoldInMatchesMutable(t *testing.T) {
	// Folding the same sessions into a clone of the loaded model and of
	// the trained model must give identical profiles.
	c := synthCorpus(t)
	m := trainedUPM(t, c)
	fm := flatUPM(t, m)
	sessions := c.Docs[1].Sessions
	d1 := m.Clone()
	d2 := fm.Clone()
	a := d1.FoldIn("brand-new-user", sessions, 10, 3)
	b := d2.FoldIn("brand-new-user", sessions, 10, 3)
	if a != b {
		t.Fatalf("fold-in doc ids differ: %d vs %d", a, b)
	}
	ta, tb := d1.Theta(a), d2.Theta(b)
	for k := range ta {
		if ta[k] != tb[k] {
			t.Fatalf("fold-in theta[%d]: %v vs %v", k, ta[k], tb[k])
		}
	}
}

func TestUPMFromStateRejectsCorrupt(t *testing.T) {
	c := synthCorpus(t)
	m := trainedUPM(t, c)
	mut := []struct {
		name string
		mut  func(st *UPMState)
	}{
		{"zero K", func(st *UPMState) { st.Cfg.K = 0 }},
		{"negative D", func(st *UPMState) { st.D = -1 }},
		{"alpha len", func(st *UPMState) { st.Alpha = st.Alpha[:1] }},
		{"beta len", func(st *UPMState) { st.BetaPrior = st.BetaPrior[:3] }},
		{"tau len", func(st *UPMState) { st.Tau = st.Tau[:1] }},
		{"ndk len", func(st *UPMState) { st.Ndk = append(st.Ndk, 1) }},
		{"csr ptr len", func(st *UPMState) { st.NkwdPtr = st.NkwdPtr[:2] }},
		{"csr ptr start", func(st *UPMState) {
			p := append([]int64(nil), st.NkwdPtr...)
			p[0] = 5
			st.NkwdPtr = p
		}},
		{"csr ptr monotone", func(st *UPMState) {
			p := append([]int64(nil), st.NkwdPtr...)
			p[1] = p[len(p)-1] + 10
			st.NkwdPtr = p
		}},
		{"csr idx bound", func(st *UPMState) {
			ix := append([]int64(nil), st.NkwdIdx...)
			ix[0] = int64(st.V) + 9
			st.NkwdIdx = ix
		}},
		{"csr idx unsorted", func(st *UPMState) {
			ix := append([]int64(nil), st.NkwdIdx...)
			swapped := false
			for r := 0; r+1 < len(st.NkwdPtr); r++ {
				if st.NkwdPtr[r+1]-st.NkwdPtr[r] >= 2 {
					p := st.NkwdPtr[r]
					ix[p], ix[p+1] = ix[p+1], ix[p]
					swapped = true
					break
				}
			}
			if !swapped {
				ix[0] = -1 // negative column: also rejected
			}
			st.NkwdIdx = ix
		}},
		{"csr val len", func(st *UPMState) { st.NkwdVal = st.NkwdVal[:1] }},
		{"doc table", func(st *UPMState) { st.DocTable = st.DocTable[:1] }},
		{"doc count", func(st *UPMState) {
			st.D--
			st.NdkSum = st.NdkSum[:st.D]
			st.Ndk = st.Ndk[:st.D*st.Cfg.K]
			st.NkwdSum = st.NkwdSum[:st.D*st.Cfg.K]
			st.NkudSum = st.NkudSum[:st.D*st.Cfg.K]
			st.NkwdPtr = st.NkwdPtr[:st.D*st.Cfg.K+1]
			nnz := st.NkwdPtr[len(st.NkwdPtr)-1]
			st.NkwdIdx = st.NkwdIdx[:nnz]
			st.NkwdVal = st.NkwdVal[:nnz]
			st.NkudPtr = st.NkudPtr[:st.D*st.Cfg.K+1]
			nnz = st.NkudPtr[len(st.NkudPtr)-1]
			st.NkudIdx = st.NkudIdx[:nnz]
			st.NkudVal = st.NkudVal[:nnz]
		}},
	}
	for _, tc := range mut {
		st := m.State()
		tc.mut(st)
		if _, err := UPMFromState(st); err == nil {
			t.Errorf("%s: accepted corrupt state", tc.name)
		}
	}
}
