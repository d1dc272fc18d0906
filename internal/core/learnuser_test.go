package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/querylog"
)

func TestLearnUserPersonalizesNewcomer(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)

	// Borrow an existing user's history for the newcomer.
	src := w.UserIDs()[2]
	entries := w.Log.ByUser(src)
	if err := e.LearnUser("brand-new", entries); err != nil {
		t.Fatal(err)
	}
	theta := e.Profiles().Theta("brand-new")
	if theta == nil {
		t.Fatal("newcomer has no profile after LearnUser")
	}
	// The newcomer now gets a personalized (non-identity) reranking for
	// some query, like the source user does.
	q := pickQuery(t, w)
	res, err := e.Do(context.Background(), SuggestRequest{User: "brand-new", Query: q, At: time.Now(), K: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suggestions) == 0 {
		t.Fatal("no suggestions for folded-in user")
	}
	// Profiles of the newcomer and its source should prefer the same
	// queries more often than not.
	agree := 0
	for _, s := range res.Diversified {
		a := e.Profiles().PreferenceScore("brand-new", s, 0)
		b := e.Profiles().PreferenceScore(src, s, 0)
		if (a > 0) == (b > 0) {
			agree++
		}
	}
	if agree < len(res.Diversified)/2 {
		t.Errorf("folded profile agrees on only %d/%d candidates", agree, len(res.Diversified))
	}
}

func TestLearnUserErrors(t *testing.T) {
	w := testWorld(t)
	noProfiles := testEngine(t, w, true)
	if err := noProfiles.LearnUser("x", w.Log.Entries[:3]); err == nil {
		t.Error("LearnUser succeeded without profiles")
	}
	withProfiles := testEngine(t, w, false)
	if err := withProfiles.LearnUser("x", nil); err == nil {
		t.Error("LearnUser succeeded with no entries")
	}
}

func TestLearnUserOverridesUserID(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, false)
	entries := []querylog.Entry{
		{UserID: "someone-else", Query: pickQuery(t, w), Time: time.Now()},
	}
	if err := e.LearnUser("the-user", entries); err != nil {
		t.Fatal(err)
	}
	if e.Profiles().Theta("the-user") == nil {
		t.Fatal("profile registered under wrong ID")
	}
}

// TestLearnUserOnLoadedImage learns a returning and a new user on
// engines whose UPM documents are windows on a loaded image, then
// serves. snapwire maps an image file PROT_READ, so a fold-in that
// wrote into the image would fault; the heap-loaded engine's buffer is
// compared byte for byte after the learns. Both must then serve θ and
// personalized lists bit for bit equal to the log-built engine that
// learned the same entries.
func TestLearnUserOnLoadedImage(t *testing.T) {
	e, users, queries := workloadInputs(t)
	img, err := e.WireImage()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.pqsw")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadEngineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("image mapped read-only: %v", mapped.LoadedImage().Mapped)
	heap, err := LoadEngine(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	heapImg, err := heap.WireImage() // the buffer the heap engine aliases
	if err != nil {
		t.Fatal(err)
	}
	pristine := bytes.Clone(heapImg)

	entries := testWorld(t).Log.ByUser(users[3])
	learned := []string{users[0], "loaded-newcomer"}
	for _, x := range []*Engine{e, mapped, heap} {
		for _, u := range learned {
			if err := x.LearnUser(u, entries); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !bytes.Equal(heapImg, pristine) {
		t.Fatal("LearnUser wrote into the loaded image")
	}

	served := append(append([]string(nil), learned...), users...)
	want := runWorkload(t, e, served, queries)
	for name, x := range map[string]*Engine{"mapped": mapped, "heap": heap} {
		for _, u := range served {
			a, b := e.Profiles().Theta(u), x.Profiles().Theta(u)
			if len(a) == 0 || len(a) != len(b) {
				t.Fatalf("%s: θ(%s) has %d topics, log-built %d", name, u, len(b), len(a))
			}
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("%s: θ(%s)[%d] = %v, log-built %v", name, u, k, b[k], a[k])
				}
			}
		}
		assertWorkloadEqual(t, name, want, runWorkload(t, x, served, queries))
	}
}
