package core

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/querylog"
	"repro/internal/synth"
)

// A log with no clicks at all: the URL view is empty, yet the engine
// must still diversify through the session and term views (the
// multi-bipartite robustness claim of Section III) — for every logged
// query that has a neighbour there. A query alone in its session whose
// terms occur in no other query has no neighbour in any view; it is
// unservable by contract (see ErrUnknownQuery), and this world has
// exactly three of them.
func TestEngineClicklessLog(t *testing.T) {
	w := synth.Generate(synth.Config{Seed: 71, NumFacets: 4, NumUsers: 8, SessionsPerUser: 12})
	stripped := &querylog.Log{}
	for _, e := range w.Log.Entries {
		e.ClickedURL = ""
		stripped.Append(e)
	}
	e, err := NewEngine(stripped, Config{
		Compact:             bipartite.CompactConfig{Budget: 40},
		SkipPersonalization: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := e.Rep()
	hasNeighbour := func(q int) bool {
		for v := 0; v < bipartite.NumViews; v++ {
			shared := false
			wt := rep.WTransposed(bipartite.View(v))
			rep.W[v].Row(q, func(o int, _ float64) {
				shared = shared || wt.RowNNZ(o) > 1
			})
			if shared {
				return true
			}
		}
		return false
	}
	var queries []string
	for q := range stripped.QueryFrequency() {
		queries = append(queries, q)
	}
	sort.Strings(queries)
	var isolated []string
	for _, q := range queries {
		id, ok := rep.QueryID(q)
		if !ok {
			t.Fatalf("logged query %q has no node", q)
		}
		res, err := e.Do(context.Background(), SuggestRequest{Query: q, At: time.Now(), K: 5, SkipPersonalization: true, NoCache: true})
		if !hasNeighbour(id) {
			isolated = append(isolated, q)
			if !errors.Is(err, ErrUnknownQuery) {
				t.Errorf("isolated query %q: err = %v, want ErrUnknownQuery", q, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("clickless log cannot suggest for %q: %v", q, err)
		} else if len(res.Diversified) == 0 {
			t.Errorf("no suggestions for %q from session/term views alone", q)
		}
	}
	if want := []string{"hefe", "topewomo", "vepu getonipa"}; !slices.Equal(isolated, want) {
		t.Errorf("isolated queries = %q, want %q", isolated, want)
	}
}

// One single user: personalization trains a one-document UPM and the
// pipeline still works end to end.
func TestEngineSingleUser(t *testing.T) {
	w := synth.Generate(synth.Config{Seed: 72, NumFacets: 3, NumUsers: 1, SessionsPerUser: 20})
	e, err := NewEngine(w.Log, Config{
		Compact: bipartite.CompactConfig{Budget: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := pickQuery(t, w)
	res, err := e.Do(context.Background(), SuggestRequest{User: w.UserIDs()[0], Query: q, At: time.Now(), K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suggestions) == 0 {
		t.Fatal("single-user engine returned nothing")
	}
}

// Serialization fidelity: an engine built from a TSV round-tripped log
// must produce identical suggestions (same seed, same data ⇒ same
// model).
func TestEngineTSVRoundTripFidelity(t *testing.T) {
	w := synth.Generate(synth.Config{Seed: 73, NumFacets: 4, NumUsers: 8, SessionsPerUser: 12})
	var buf bytes.Buffer
	if err := w.Log.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	reparsed, err := querylog.ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Compact: bipartite.CompactConfig{Budget: 40}, SkipPersonalization: true}
	e1, err := NewEngine(w.Log, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewEngine(reparsed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := pickQuery(t, w)
	at := time.Now()
	r1, err1 := e1.Do(context.Background(), SuggestRequest{Query: q, At: at, K: 8, SkipPersonalization: true, NoCache: true})
	r2, err2 := e2.Do(context.Background(), SuggestRequest{Query: q, At: at, K: 8, SkipPersonalization: true, NoCache: true})
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v %v", err1, err2)
	}
	if len(r1.Diversified) != len(r2.Diversified) {
		t.Fatalf("lengths differ: %d vs %d", len(r1.Diversified), len(r2.Diversified))
	}
	for i := range r1.Diversified {
		if r1.Diversified[i] != r2.Diversified[i] {
			t.Fatalf("suggestion %d differs after round trip: %q vs %q", i, r1.Diversified[i], r2.Diversified[i])
		}
	}
}

// Empty-session-context robustness: passing context entries whose
// queries are unknown must not break anything.
func TestSuggestUnknownContext(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	q := pickQuery(t, w)
	ctx := []querylog.Entry{{UserID: "u", Query: "zzz not in log", Time: time.Now().Add(-time.Minute)}}
	res, err := e.Do(context.Background(), SuggestRequest{Query: q, Context: ctx, At: time.Now(), K: 5, SkipPersonalization: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diversified) == 0 {
		t.Fatal("unknown context suppressed all suggestions")
	}
}
