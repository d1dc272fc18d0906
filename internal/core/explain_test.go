package core

import (
	"context"
	"testing"
	"time"
)

func TestExplainMatchesSuggest(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)
	q := pickQuery(t, w)
	user := w.UserIDs()[0]
	at := time.Now()

	res, err := e.Do(context.Background(), SuggestRequest{User: user, Query: q, At: at, K: 8})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := e.Explain(user, q, nil, at, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Candidates) != len(res.Suggestions) {
		t.Fatalf("explanation has %d candidates, suggest returned %d", len(ex.Candidates), len(res.Suggestions))
	}
	for i, c := range ex.Candidates {
		if c.Suggestion != res.Suggestions[i] {
			t.Fatalf("explanation order differs at %d: %q vs %q", i, c.Suggestion, res.Suggestions[i])
		}
	}
}

func TestExplainDiagnosticsCoherent(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)
	q := pickQuery(t, w)
	ex, err := e.Explain(w.UserIDs()[1], q, nil, time.Now(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if ex.CompactSize == 0 {
		t.Error("no compact size recorded")
	}
	seenRanks := make(map[int]bool)
	var first *CandidateExplanation
	for i := range ex.Candidates {
		c := &ex.Candidates[i]
		if seenRanks[c.DiversityRank] {
			t.Fatalf("duplicate diversity rank %d", c.DiversityRank)
		}
		seenRanks[c.DiversityRank] = true
		if c.Relevance < 0 {
			t.Errorf("%q: negative relevance %v", c.Suggestion, c.Relevance)
		}
		if c.DiversityRank == 0 {
			first = c
		} else if c.HittingTime <= 0 {
			t.Errorf("%q (rank %d): non-positive hitting time %v", c.Suggestion, c.DiversityRank, c.HittingTime)
		}
		if c.BordaPoints <= 0 {
			t.Errorf("%q: no Borda points", c.Suggestion)
		}
	}
	if first == nil {
		t.Fatal("no rank-0 (Eq. 15) candidate in explanation")
	}
	if first.HittingTime != 0 {
		t.Errorf("first candidate has hitting time %v, want 0", first.HittingTime)
	}
	// The Eq. 15 first candidate has the largest relevance of all
	// candidates (it was argmax F*).
	for _, c := range ex.Candidates {
		if c.Relevance > first.Relevance+1e-9 {
			t.Errorf("%q relevance %v exceeds first candidate's %v", c.Suggestion, c.Relevance, first.Relevance)
		}
	}
}

func TestExplainWithoutProfiles(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	q := pickQuery(t, w)
	ex, err := e.Explain("anyone", q, nil, time.Now(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range ex.Candidates {
		if c.Preference != 0 || c.BordaPoints != 0 {
			t.Errorf("profile-less explanation has personalization fields set: %+v", c)
		}
		if c.DiversityRank != i {
			t.Errorf("order should be diversification order without profiles")
		}
	}
}

func TestExplainUnknownQuery(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	if _, err := e.Explain("u", "zzz qqq", nil, time.Now(), 5); err != ErrUnknownQuery {
		t.Fatalf("err = %v", err)
	}
}
