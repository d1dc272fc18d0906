package core

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/bipartite"
)

// TestColdDoHammerAcrossSwaps drives the miss path — carve, Eq. 15
// system, walker, selection, all on pooled scratch — from several
// goroutines with every cache bypassed, while a delta rebuild prepares
// the next generation (more queries, wider views); the readers
// alternate between the two newest generations, so scratch grown for
// one representation is reused on another mid-flight. Any state a stage
// failed to reset shows up as a list that differs from the same
// engine's sequential answer. Run with -race.
func TestColdDoHammerAcrossSwaps(t *testing.T) {
	w := testWorld(t)
	e, err := NewEngine(w.Log, Config{
		Compact:             bipartite.CompactConfig{Budget: 60},
		SkipPersonalization: true,
		CompactCache:        -1, // every request carves
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := frequentQueries(t, w.Log, 2)
	at := logEnd(w)
	cold := func(eng *Engine, q string) ([]string, error) {
		res, err := eng.Do(context.Background(), SuggestRequest{Query: q, At: at, K: 6, NoCache: true})
		return res.Diversified, err
	}

	type answer struct {
		eng   *Engine
		query string
		list  []string
	}
	const readers, perReader = 4, 12
	engines := []*Engine{e}
	var answers [][]answer
	for swap := 0; swap < 5; swap++ {
		var wg sync.WaitGroup
		var next *Engine
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if next, err = engines[len(engines)-1].RebuildWith(freshBurst(w, 40, int64(swap)), RebuildGraphs, DeltaRebuild); err != nil {
				t.Errorf("rebuild %d: %v", swap, err)
			}
		}()
		phase := make([][]answer, readers)
		for g := range phase {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perReader; i++ {
					eng := engines[max(0, len(engines)-1-i%2)]
					q := qs[(swap*31+g*7+i)%len(qs)]
					list, err := cold(eng, q)
					if err != nil {
						t.Errorf("cold Do(%q): %v", q, err)
						return
					}
					phase[g] = append(phase[g], answer{eng, q, list})
				}
			}()
		}
		wg.Wait()
		if next == nil {
			return
		}
		engines = append(engines, next)
		answers = append(answers, phase...)
	}
	if first, last := e.Rep().NumQueries(), engines[len(engines)-1].Rep().NumQueries(); last <= first {
		t.Errorf("query space did not grow across the swaps (%d → %d)", first, last)
	}
	for _, as := range answers {
		for _, a := range as {
			want, err := cold(a.eng, a.query)
			if err != nil {
				t.Fatalf("sequential Do(%q): %v", a.query, err)
			}
			if !slices.Equal(want, a.list) {
				t.Fatalf("%q at generation %d: concurrent %q, sequential %q", a.query, a.eng.Generation(), a.list, want)
			}
		}
	}
}
