package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/snapwire"
)

// workloadResult is one (strategy, user, query) run's observable output.
type workloadResult struct {
	strategy, user, query string
	suggestions           []string
	diversified           []string
	compactSize           int
}

// runWorkload exercises every registered strategy over a randomized
// mix of users and queries and returns the full observable output —
// the equivalence oracle for the wire round-trip tests.
func runWorkload(t *testing.T, e *Engine, users, queries []string) []workloadResult {
	t.Helper()
	at := time.Date(2014, 3, 1, 12, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(7))
	var out []workloadResult
	for _, strat := range e.StrategyNames() {
		for i := 0; i < 6; i++ {
			u := users[rng.Intn(len(users))]
			q := queries[rng.Intn(len(queries))]
			res, err := e.Do(context.Background(), SuggestRequest{Strategy: strat, User: u, Query: q, At: at, K: 8})
			if err != nil {
				t.Fatalf("strategy %s user %s query %q: %v", strat, u, q, err)
			}
			out = append(out, workloadResult{
				strategy: strat, user: u, query: q,
				suggestions: res.Suggestions, diversified: res.Diversified,
				compactSize: res.CompactSize,
			})
		}
	}
	return out
}

func assertWorkloadEqual(t *testing.T, label string, want, got []workloadResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d results vs %d", label, len(want), len(got))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.strategy != b.strategy || a.user != b.user || a.query != b.query {
			t.Fatalf("%s: workload drift at %d", label, i)
		}
		if a.compactSize != b.compactSize {
			t.Fatalf("%s: %s/%q compact %d vs %d", label, a.strategy, a.query, a.compactSize, b.compactSize)
		}
		if strings.Join(a.suggestions, "|") != strings.Join(b.suggestions, "|") {
			t.Fatalf("%s: %s/%s/%q suggestions\n  orig: %v\n  load: %v",
				label, a.strategy, a.user, a.query, a.suggestions, b.suggestions)
		}
		if strings.Join(a.diversified, "|") != strings.Join(b.diversified, "|") {
			t.Fatalf("%s: %s/%s/%q diversified\n  orig: %v\n  load: %v",
				label, a.strategy, a.user, a.query, a.diversified, b.diversified)
		}
	}
}

func workloadInputs(t *testing.T) (*Engine, []string, []string) {
	t.Helper()
	w := testWorld(t)
	e := testEngine(t, w, false)
	users := w.UserIDs()
	freq := w.Log.QueryFrequency()
	queries := make([]string, 0, len(freq))
	for q := range freq {
		queries = append(queries, q)
	}
	sort.Slice(queries, func(i, j int) bool {
		if freq[queries[i]] != freq[queries[j]] {
			return freq[queries[i]] > freq[queries[j]]
		}
		return queries[i] < queries[j]
	})
	if len(queries) > 8 {
		queries = queries[:8]
	}
	return e, users, queries
}

// TestWireRoundTripAllStrategies is the PR's acceptance oracle: build →
// WriteTo → Load on both the heap path (LoadEngine) and the mmap path
// (LoadEngineFile) must serve identical suggestions for a randomized
// workload across every registered strategy.
func TestWireRoundTripAllStrategies(t *testing.T) {
	e, users, queries := workloadInputs(t)
	want := runWorkload(t, e, users, queries)

	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}

	heap, err := LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if heap.LoadedImage().Mapped {
		t.Fatal("reader path claims an mmap")
	}
	assertWorkloadEqual(t, "heap", want, runWorkload(t, heap, users, queries))

	path := filepath.Join(t.TempDir(), "engine.pqsw")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadEngineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	info := mapped.LoadedImage()
	if !info.Present || info.Size != int64(buf.Len()) || len(info.Sections) == 0 {
		t.Fatalf("loaded image info: %+v", info)
	}
	t.Logf("file path mapped=%v size=%d sections=%d", info.Mapped, info.Size, len(info.Sections))
	assertWorkloadEqual(t, "mmap", want, runWorkload(t, mapped, users, queries))

	// And the loaded engine must re-encode to a servable image (the
	// GET /v1/snapshot of a POST-fed replica).
	img, err := mapped.WireImage()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img, buf.Bytes()) {
		t.Fatalf("loaded engine re-encodes to %d bytes that differ from the %d it was loaded from", len(img), buf.Len())
	}
	again, err := LoadEngine(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	assertWorkloadEqual(t, "re-encode", want, runWorkload(t, again, users, queries))
}

func TestWireImageCachedPerSnapshot(t *testing.T) {
	w := testWorld(t)
	e := testEngine(t, w, true)
	a, err := e.WireImage()
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.WireImage()
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("unchanged snapshot re-encoded")
	}
}

func TestAdoptSnapshot(t *testing.T) {
	e, users, queries := workloadInputs(t)
	want := runWorkload(t, e, users, queries)
	img, err := e.WireImage()
	if err != nil {
		t.Fatal(err)
	}

	// A second, differently built engine adopts the first one's image.
	w2 := testWorld(t)
	other := testEngine(t, w2, false)
	prevGen := other.Snapshot().Generation
	l, err := snapwire.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.AdoptSnapshot(l); err != nil {
		t.Fatal(err)
	}
	if got := other.Snapshot().Generation; got != prevGen+1 {
		t.Fatalf("generation %d after adopt, want %d", got, prevGen+1)
	}
	assertWorkloadEqual(t, "adopted", want, runWorkload(t, other, users, queries))
	if err := other.Refresh(RebuildGraphs); err == nil {
		t.Fatal("refresh worked after adopt — raw log no longer matches serving state")
	}
}

// TestLoadEngineLegacyGob feeds the opening bytes of an encoding/gob
// engine file to LoadEngine: not a snapshot image, refused at the magic.
func TestLoadEngineLegacyGob(t *testing.T) {
	gobPrefix := []byte("\x1f\xff\x81\x03\x01\x01\nengineWire\x01\xff\x82\x00")
	_, err := LoadEngine(bytes.NewReader(gobPrefix))
	if !errors.Is(err, snapwire.ErrFormat) {
		t.Fatalf("error %v, want ErrFormat", err)
	}
	if !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("gob stream not refused by the magic check: %v", err)
	}
}
