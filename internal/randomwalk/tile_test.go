package randomwalk

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// denseTransition draws an n-node transition at the given density with
// the row shapes the tile kernel branches on: empty rows, rows summing
// to 1 (no dangling mass) and rows summing below 1 (dangling self-loop).
// lenMod4 counts the rows by len%4.
func denseTransition(rng *rand.Rand, n int, density float64) (trans *sparse.Matrix, lenMod4 [4]int) {
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.08 {
			lenMod4[0]++
			continue
		}
		var cols []int
		for j := 0; j < n; j++ {
			if rng.Float64() < density {
				cols = append(cols, j)
			}
		}
		if len(cols) == 0 {
			cols = []int{rng.Intn(n)}
		}
		w := make([]float64, len(cols))
		sum := 0.0
		for e := range w {
			w[e] = rng.Float64() + 1e-3
			sum += w[e]
		}
		mass := 1.0
		if rng.Intn(2) == 0 {
			mass = 0.5 + 0.5*rng.Float64()
		}
		for e, j := range cols {
			b.Add(i, j, mass*w[e]/sum)
		}
		lenMod4[len(cols)%4]++
	}
	return b.Build(), lenMod4
}

// laneSets draws TileLanes different target sets, lane-major; lane 0 is
// empty and lane 1 holds every node.
func laneSets(rng *rand.Rand, n int) (tile [][TileLanes]bool, lanes [TileLanes][]bool) {
	tile = make([][TileLanes]bool, n)
	for l := range lanes {
		lanes[l] = make([]bool, n)
		p := rng.Float64() * 0.3
		for j := 0; j < n; j++ {
			in := rng.Float64() < p
			switch l {
			case 0:
				in = false
			case 1:
				in = true
			}
			lanes[l][j] = in
			tile[j][l] = in
		}
	}
	return tile, lanes
}

// checkTileEqualsFlat holds every lane of one tile run to the
// single-lane kernel on that lane's set: same bits on every row read,
// same sweep count.
func checkTileEqualsFlat(t *testing.T, trans *sparse.Matrix, tile [][TileLanes]bool, lanes [TileLanes][]bool, opts HittingTimeOpts) [TileLanes]int {
	t.Helper()
	n := trans.Rows()
	got, gotIters := TruncatedHittingTimeTile(trans, tile, opts, nil)
	rows := opts.Rows
	if rows == nil {
		rows = make([]int, n)
		for i := range rows {
			rows[i] = i
		}
	}
	for l := 0; l < TileLanes; l++ {
		want, wantIters := TruncatedHittingTimeFlat(trans, lanes[l], opts)
		if gotIters[l] != wantIters {
			t.Fatalf("lane %d: %d sweeps, single-lane kernel ran %d", l, gotIters[l], wantIters)
		}
		for _, i := range rows {
			if g, w := got[i][l], want[i]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("lane %d row %d: tile %v (%#x), single-lane %v (%#x)",
					l, i, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	return gotIters
}

// TestTileMatchesFlatBitwise is the tile kernel's contract on random
// transitions: n 1…260, density 1 %…60 %, every len%4 row class, empty
// and dangling rows, lanes with different, empty and full target sets,
// with the tolerance exit off and at the serving default, with and
// without a row restriction, from pooled scratch of another size.
func TestTileMatchesFlatBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	var seenMod4 [4]int
	scratch := &TileScratch{}
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(260)
		if trial < 4 {
			n = 1 + trial
		}
		density := 0.01 + 0.59*rng.Float64()
		trans, mod4 := denseTransition(rng, n, density)
		for k := range seenMod4 {
			seenMod4[k] += mod4[k]
		}
		tile, lanes := laneSets(rng, n)
		dangling := DanglingMass(trans)
		if trial%3 == 0 {
			dangling = nil // derived per call
		}
		var rows []int
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				rows = append(rows, i)
			}
		}
		steps := 1 + rng.Intn(12)
		for _, tol := range []float64{-1, 1e-9} {
			for _, r := range [][]int{nil, rows, {}} {
				checkTileEqualsFlat(t, trans, tile, lanes, HittingTimeOpts{
					Steps: steps, Tol: tol, Dangling: dangling, Rows: r,
				})
			}
		}
		// Reused scratch last sized for another n must not leak state.
		got, _ := TruncatedHittingTimeTile(trans, tile, HittingTimeOpts{Steps: steps, Dangling: dangling}, scratch)
		want, _ := TruncatedHittingTimeFlat(trans, lanes[2], HittingTimeOpts{Steps: steps, Dangling: dangling})
		for i := range want {
			if math.Float64bits(got[i][2]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: reused scratch differs at row %d", trial, i)
			}
		}
	}
	for k, c := range seenMod4 {
		if c == 0 {
			t.Errorf("no row with len%%4 == %d was generated", k)
		}
	}
}

// TestTileToleranceExitIsPerLane builds what the served fixture never
// shows: a small chain where every node reaches every target set, so the
// recursion converges and lanes with larger sets converge sooner. Each
// lane must stop at its own sweep with that sweep's values.
func TestTileToleranceExitIsPerLane(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 14
	trans := randomStochastic(rng, n)
	tile := make([][TileLanes]bool, n)
	var lanes [TileLanes][]bool
	for l := range lanes {
		lanes[l] = make([]bool, n)
		// Lane l targets nodes 0…l: hitting times shrink, and settle
		// sooner, as the set grows.
		for j := 0; j <= l; j++ {
			lanes[l][j] = true
			tile[j][l] = true
		}
	}
	for _, rows := range [][]int{nil, {1, 5, 13}} {
		iters := checkTileEqualsFlat(t, trans, tile, lanes, HittingTimeOpts{
			Steps: 400, Tol: 1e-6, Dangling: DanglingMass(trans), Rows: rows,
		})
		distinct := map[int]bool{}
		for l, it := range iters {
			if it >= 400 {
				t.Fatalf("lane %d never converged (%d sweeps): the fixture does not exercise the exit", l, it)
			}
			distinct[it] = true
		}
		if len(distinct) < 3 {
			t.Fatalf("lanes exited at sweeps %v: want different sweeps per lane", iters)
		}
	}
}

// BenchmarkHittingTimeTileSteadyState is the tile kernel's allocation
// guard (`make bench-guard`): with caller scratch and precomputed
// dangling mass, eight lanes sweep at 0 allocs/op.
func BenchmarkHittingTimeTileSteadyState(b *testing.B) {
	trans, inS, dangling := benchFixture()
	tile := make([][TileLanes]bool, len(inS))
	for j, in := range inS {
		for l := range tile[j] {
			tile[j][l] = in || j == 7*l
		}
	}
	opts := HittingTimeOpts{Steps: benchL, Dangling: dangling}
	scratch := &TileScratch{}
	TruncatedHittingTimeTile(trans, tile, opts, scratch) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TruncatedHittingTimeTile(trans, tile, opts, scratch)
	}
}
