package hittingtime

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/obs"
)

// randomLanes draws lanes that differ in everything a lane has: first
// candidate (in range and out of it), k (none, 1, 2, 10, more than the
// pool holds), excluded set, and pool (nil, empty, with duplicates and
// out-of-range entries).
func randomLanes(rng *rand.Rand, n, count, kMax int) []Lane {
	lanes := make([]Lane, count)
	ks := []int{1, 2, 10, kMax, 0}
	for i := range lanes {
		ln := Lane{First: rng.Intn(n), K: ks[rng.Intn(len(ks))]}
		if rng.Intn(12) == 0 {
			ln.First = n + rng.Intn(3)
		}
		for e := rng.Intn(4); e > 0; e-- {
			ln.Excluded = append(ln.Excluded, rng.Intn(n+2)-1)
		}
		switch rng.Intn(4) {
		case 0: // nil pool: every query is a candidate
		case 1:
			ln.Pool = []int{}
		default:
			for p := 3 + rng.Intn(min(n, 40)); p > 0; p-- {
				ln.Pool = append(ln.Pool, rng.Intn(n+2)-1)
			}
		}
		lanes[i] = ln
	}
	return lanes
}

// TestSelectDiverseLanesMatchesSingle holds the multi-lane selection to
// SelectDiverseCtx lane by lane, for lane counts on both sides of every
// tile boundary up to 19 = 2 tiles + 3, with and without the tolerance
// exit.
func TestSelectDiverseLanesMatchesSingle(t *testing.T) {
	_, _, small := compactFixture(t)
	rng := rand.New(rand.NewSource(28))
	for _, fix := range []struct {
		name string
		c    *bipartite.Compact
		kMax int // beyond every pool drawn; beyond the whole compact on the small one
	}{{"small", small, small.Size() + 5}, {"big", benchCompact(t), 45}} {
		for _, cfg := range []Config{{}, {Tolerance: -1}, {Iterations: 3}} {
			wk := NewWalker(fix.c, cfg)
			n := fix.c.Size()
			for count := 1; count <= 19; count++ {
				lanes := randomLanes(rng, n, count, fix.kMax)
				got, errs := wk.SelectDiverseLanes(context.Background(), lanes)
				for i, ln := range lanes {
					want, _ := wk.SelectDiverseCtx(context.Background(), ln.First, ln.K, ln.Excluded, ln.Pool)
					if errs[i] != nil {
						t.Fatalf("%s: lane %d of %d: error %v", fix.name, i, count, errs[i])
					}
					if !slices.Equal(got[i], want) || (got[i] == nil) != (want == nil) {
						t.Fatalf("%s: lane %d of %d (%+v): lanes %v, single %v", fix.name, i, count, ln, got[i], want)
					}
				}
			}
		}
	}
}

// cancelAfter is a context whose Err turns non-nil after it has been
// asked n times — the greedy loops ask once per round.
type cancelAfter struct {
	context.Context
	left int
}

func (c *cancelAfter) Err() error {
	if c.left == 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// A context cancelled after round r leaves every lane with its first
// candidate plus r picks and ctx.Err() — what r rounds of
// SelectDiverseCtx leave a single request with.
func TestSelectDiverseLanesCancelled(t *testing.T) {
	c := benchCompact(t)
	wk := NewWalker(c, Config{})
	rng := rand.New(rand.NewSource(4))
	lanes := make([]Lane, 8)
	for i := range lanes {
		lanes[i] = Lane{First: rng.Intn(c.Size()), K: 10, Excluded: []int{0}}
	}
	for r := 0; r < 4; r++ {
		got, errs := wk.SelectDiverseLanes(&cancelAfter{context.Background(), r}, lanes)
		for i, ln := range lanes {
			want, werr := wk.SelectDiverseCtx(&cancelAfter{context.Background(), r}, ln.First, ln.K, ln.Excluded, ln.Pool)
			if !errors.Is(errs[i], context.Canceled) || !errors.Is(werr, context.Canceled) {
				t.Fatalf("round %d lane %d: errors %v / %v, want context.Canceled", r, i, errs[i], werr)
			}
			if len(got[i]) != r+1 || !slices.Equal(got[i], want) {
				t.Fatalf("round %d lane %d: lanes %v, single %v, want %d picks", r, i, got[i], want, r+1)
			}
		}
	}
	// A lane that needs no round is complete, not cancelled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lanes[3].K = 1
	got, errs := wk.SelectDiverseLanes(ctx, lanes)
	if errs[3] != nil || len(got[3]) != 1 || errs[0] == nil || len(got[0]) != 1 {
		t.Fatalf("cancelled before round 0: lane 3 %v %v, lane 0 %v %v", got[3], errs[3], got[0], errs[0])
	}
}

// listSink records every observation in arrival order.
type listSink struct{ seen map[string][]float64 }

func (s *listSink) Observe(name string, v float64) { s.seen[name] = append(s.seen[name], v) }

// Rounds and walk steps are observed per lane with the lane's own
// counts, also where the tolerance exit stops lanes at different sweeps
// (a deep horizon arms it on this fixture).
func TestSelectDiverseLanesObservesPerLane(t *testing.T) {
	c := benchCompact(t)
	wk := NewWalker(c, Config{Iterations: 2000})
	rng := rand.New(rand.NewSource(9))
	lanes := randomLanes(rng, c.Size(), 8, 45)
	for i := range lanes {
		lanes[i].First, lanes[i].K = i, 2+i%3 // every lane valid, different depths
	}
	tiled := &listSink{seen: map[string][]float64{}}
	if _, errs := wk.SelectDiverseLanes(obs.WithSink(context.Background(), tiled), lanes); errs[0] != nil {
		t.Fatal(errs[0])
	}
	single := &listSink{seen: map[string][]float64{}}
	for _, ln := range lanes {
		wk.SelectDiverseCtx(obs.WithSink(context.Background(), single), ln.First, ln.K, ln.Excluded, ln.Pool)
	}
	for _, name := range []string{obs.MetricHittingRounds, obs.MetricHittingWalkSteps} {
		if !slices.Equal(tiled.seen[name], single.seen[name]) {
			t.Errorf("%s: lanes observed %v, single requests %v", name, tiled.seen[name], single.seen[name])
		}
	}
	early := 0
	for _, steps := range single.seen[obs.MetricHittingWalkSteps] {
		if int(steps)%2000 != 0 {
			early++
		}
	}
	if early < 2 {
		t.Fatalf("walk steps %v: want lanes stopped by the tolerance exit", single.seen[obs.MetricHittingWalkSteps])
	}
}
