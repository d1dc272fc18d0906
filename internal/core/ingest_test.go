package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/querylog"
	"repro/internal/synth"
)

func TestIngestAndRefreshGraphs(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	before := e.Rep().NumQueries()

	// Ingest a brand-new query from a brand-new user.
	now := time.Now()
	fresh := []querylog.Entry{
		{UserID: "late-user", Query: "completely fresh phrase", ClickedURL: "new.example/page", Time: now},
		{UserID: "late-user", Query: "completely fresh phrase two", ClickedURL: "new.example/page", Time: now.Add(30 * time.Second)},
	}
	e.Ingest(fresh)
	if e.PendingEntries() != 2 {
		t.Fatalf("pending = %d", e.PendingEntries())
	}
	// Not visible before refresh.
	if _, ok := e.Rep().QueryID("completely fresh phrase"); ok {
		t.Fatal("ingested query visible before Refresh")
	}
	if err := e.Refresh(RebuildGraphs); err != nil {
		t.Fatal(err)
	}
	if e.PendingEntries() != 0 {
		t.Fatal("dirty counter not reset")
	}
	if e.Rep().NumQueries() <= before {
		t.Fatalf("representation did not grow: %d -> %d", before, e.Rep().NumQueries())
	}
	if _, ok := e.Rep().QueryID("completely fresh phrase"); !ok {
		t.Fatal("ingested query missing after Refresh")
	}
	// And it is servable.
	res, err := e.Do(context.Background(), SuggestRequest{Query: "completely fresh phrase", At: now, K: 5, SkipPersonalization: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diversified) == 0 {
		t.Fatal("no suggestions for refreshed query")
	}
}

func TestRefreshFoldInUsers(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)

	// A new user arrives speaking the EXISTING vocabulary (clone an
	// existing user's entries under a new ID).
	src := w.UserIDs()[1]
	var fresh []querylog.Entry
	for _, en := range w.Log.ByUser(src)[:8] {
		en.UserID = "fold-target"
		fresh = append(fresh, en)
	}
	e.Ingest(fresh)
	if e.Profiles().Theta("fold-target") != nil {
		t.Fatal("profile exists before refresh")
	}
	if err := e.Refresh(FoldInUsers); err != nil {
		t.Fatal(err)
	}
	if e.Profiles().Theta("fold-target") == nil {
		t.Fatal("fold-in refresh did not profile the new user")
	}
}

func TestRefreshRetrainProfiles(t *testing.T) {
	w := synth.Generate(synth.Config{Seed: 53, NumFacets: 4, NumUsers: 6, SessionsPerUser: 10})
	e := testEngine(t, w, false)
	docsBefore := e.Profiles().UPM().NumDocs()
	var fresh []querylog.Entry
	for _, en := range w.Log.ByUser(w.UserIDs()[0])[:6] {
		en.UserID = "retrain-user"
		fresh = append(fresh, en)
	}
	e.Ingest(fresh)
	if err := e.Refresh(RetrainProfiles); err != nil {
		t.Fatal(err)
	}
	if got := e.Profiles().UPM().NumDocs(); got != docsBefore+1 {
		t.Fatalf("retrained docs = %d, want %d", got, docsBefore+1)
	}
	if e.Profiles().Theta("retrain-user") == nil {
		t.Fatal("retrain lost the new user")
	}
}

func TestRefreshModesNeedProfiles(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	if err := e.Refresh(FoldInUsers); err == nil {
		t.Error("FoldInUsers without profiles accepted")
	}
	if err := e.Refresh(RetrainProfiles); err == nil {
		t.Error("RetrainProfiles without profiles accepted")
	}
	if err := e.Refresh(RebuildGraphs); err != nil {
		t.Errorf("RebuildGraphs should always work: %v", err)
	}
}
