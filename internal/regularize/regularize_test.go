package regularize

import (
	"math"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/querylog"
	"repro/internal/synth"
)

func compactAround(t *testing.T, seedQuery int) *bipartite.Compact {
	t.Helper()
	w := synth.Generate(synth.Config{Seed: 11, NumFacets: 6, NumUsers: 15, SessionsPerUser: 10})
	rep := bipartite.Build(w.Log, querylog.SessionizerConfig{}, bipartite.CFIQF)
	return rep.BuildCompact([]int{seedQuery}, bipartite.CompactConfig{Budget: 40})
}

func TestValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := Config{Mu: 1, Alpha: [bipartite.NumViews]float64{1, 1, 1}}
	if err := bad.Validate(); err == nil {
		t.Error("Σα > μ accepted")
	}
	neg := Config{Mu: 5, Alpha: [bipartite.NumViews]float64{-1, 1, 1}}
	if err := neg.Validate(); err == nil {
		t.Error("negative alpha accepted")
	}
}

func TestContextVector(t *testing.T) {
	lambda := math.Ln2 / 60 // halves every minute
	f0 := ContextVector(5, 0, []ContextEntry{
		{Local: 1, Before: time.Minute},
		{Local: 2, Before: 2 * time.Minute},
		{Local: 7, Before: time.Second}, // out of range: ignored
		{Local: 0, Before: time.Second}, // input itself: ignored
	}, lambda)
	if f0[0] != 1 {
		t.Errorf("input entry = %v, want 1", f0[0])
	}
	if math.Abs(f0[1]-0.5) > 1e-12 {
		t.Errorf("1-minute context = %v, want 0.5", f0[1])
	}
	if math.Abs(f0[2]-0.25) > 1e-12 {
		t.Errorf("2-minute context = %v, want 0.25", f0[2])
	}
	if f0[3] != 0 || f0[4] != 0 {
		t.Error("untouched entries nonzero")
	}
	// More recent context weighs more.
	if !(f0[1] > f0[2]) {
		t.Error("decay not monotone")
	}
}

func TestContextVectorNegativeDuration(t *testing.T) {
	f0 := ContextVector(3, 0, []ContextEntry{{Local: 1, Before: -time.Hour}}, 0.01)
	if f0[1] != 1 {
		t.Errorf("negative duration should clamp to weight 1, got %v", f0[1])
	}
}

func TestFirstCandidateOnSyntheticLog(t *testing.T) {
	c := compactAround(t, 0)
	if c.Size() < 3 {
		t.Skip("compact too small for this seed")
	}
	f0 := ContextVector(c.Size(), 0, nil, 0.01)
	res, err := FirstCandidate(c, f0, []int{0}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.First < 0 || res.First == 0 {
		t.Fatalf("First = %d, want a non-seed candidate", res.First)
	}
	// The input query itself must hold the largest F* overall (fitting
	// constraint dominates at the seed).
	for i, v := range res.F {
		if i != 0 && v > res.F[0] {
			t.Errorf("F[%d] = %v exceeds seed's %v", i, v, res.F[0])
		}
	}
	// All relevances must be nonnegative for a nonnegative F0.
	for i, v := range res.F {
		if v < -1e-9 {
			t.Errorf("F[%d] = %v negative", i, v)
		}
	}
}

func TestFirstCandidateRespectsSeedExclusion(t *testing.T) {
	c := compactAround(t, 1)
	if c.Size() < 4 {
		t.Skip("compact too small")
	}
	f0 := ContextVector(c.Size(), 0, []ContextEntry{{Local: 1, Before: time.Minute}}, 0.01)
	res, err := FirstCandidate(c, f0, []int{0, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.First == 0 || res.First == 1 {
		t.Errorf("seed %d chosen as candidate", res.First)
	}
}

func TestFirstCandidateLengthMismatch(t *testing.T) {
	c := compactAround(t, 0)
	if _, err := FirstCandidate(c, make([]float64, c.Size()+1), nil, Config{}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSystemSPDStructure(t *testing.T) {
	c := compactAround(t, 2)
	a := System(c, Config{})
	n := a.Rows()
	if n != c.Size() || a.Cols() != n {
		t.Fatalf("system shape %dx%d", a.Rows(), a.Cols())
	}
	// Symmetry.
	for i := 0; i < n; i++ {
		a.Row(i, func(j int, v float64) {
			if math.Abs(v-a.At(j, i)) > 1e-9 {
				t.Fatalf("system not symmetric at (%d,%d)", i, j)
			}
		})
	}
	// Diagonal dominance-ish: diagonal = 1+Σα − α·L_ii ≥ 1 since L_ii ≤ 1,
	// and |L_ij| ≤ 1 bounds every off-diagonal entry by Σα (0.3 by default).
	for i := 0; i < n; i++ {
		if a.At(i, i) < 1-1e-9 {
			t.Errorf("diagonal %d = %v < 1", i, a.At(i, i))
		}
		a.Row(i, func(j int, v float64) {
			if j != i && math.Abs(v) > 0.3+1e-9 {
				t.Errorf("off-diagonal (%d,%d) = %v exceeds Σα", i, j, v)
			}
		})
	}
}

func TestSmoothnessPullsNeighbors(t *testing.T) {
	// Relevance must propagate: at least one non-seed query gets a
	// strictly positive score, and queries connected to the seed score
	// higher than isolated ones.
	c := compactAround(t, 0)
	if c.Size() < 3 {
		t.Skip("compact too small")
	}
	f0 := ContextVector(c.Size(), 0, nil, 0.01)
	res, err := FirstCandidate(c, f0, []int{0}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.F[res.First] <= 0 {
		t.Errorf("best candidate score %v, want > 0 (propagation failed)", res.F[res.First])
	}
}

func TestRank(t *testing.T) {
	res := Result{F: []float64{0.9, 0.1, 0.7, 0.5}}
	rank := res.Rank([]int{0})
	want := []int{2, 3, 1}
	if len(rank) != 3 {
		t.Fatalf("rank = %v", rank)
	}
	for i := range want {
		if rank[i] != want[i] {
			t.Errorf("rank = %v, want %v", rank, want)
			break
		}
	}
}

// TestSystemMemoized pins that the Eq. 15 system is built once per
// (compact, α): repeated calls share the matrix, a different α builds a
// different one, and the memoized matrix matches a from-scratch build
// on an identical compact bit for bit.
func TestSystemMemoized(t *testing.T) {
	c := compactAround(t, 1)
	cfg := Config{}
	a1 := System(c, cfg)
	a2 := System(c, cfg)
	if a1 != a2 {
		t.Fatal("same config rebuilt the system matrix")
	}
	other := Config{Mu: 2, Alpha: [bipartite.NumViews]float64{0.2, 0.1, 0.1}}
	if System(c, other) == a1 {
		t.Fatal("different alpha shared a system matrix")
	}

	// Fresh identical compact → bit-identical system.
	want := System(compactAround(t, 1), cfg)
	n := c.Size()
	if want.Rows() != n || a1.Rows() != n {
		t.Fatalf("system sizes %d/%d != compact size %d", a1.Rows(), want.Rows(), n)
	}
	for i := 0; i < n; i++ {
		gr, wr := map[int]float64{}, map[int]float64{}
		a1.Row(i, func(j int, v float64) { gr[j] = v })
		want.Row(i, func(j int, v float64) { wr[j] = v })
		if len(gr) != len(wr) {
			t.Fatalf("row %d nnz %d != %d", i, len(gr), len(wr))
		}
		for j, v := range wr {
			if gr[j] != v {
				t.Fatalf("system[%d,%d] = %v, want %v", i, j, gr[j], v)
			}
		}
	}
}
