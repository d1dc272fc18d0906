package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// spdMatrix builds a random symmetric positive-definite sparse matrix as
// D + A Aᵀ scaled, where D has a strictly positive diagonal.
func spdMatrix(rng *rand.Rand, n int) *Matrix {
	a := randomMatrix(rng, n, n, 0.3)
	aat := MulMat(a, a.Transpose())
	d := make([]float64, n)
	for i := range d {
		d[i] = 1 + rng.Float64()
	}
	return Add(aat, Diagonal(d), 1)
}

func residual(a *Matrix, x, b []float64) float64 {
	ax := a.MulVec(x, nil)
	s := 0.0
	for i := range b {
		diff := ax[i] - b[i]
		s += diff * diff
	}
	return math.Sqrt(s)
}

func TestSolveCGExact(t *testing.T) {
	// 2x2 system with known solution: [[4,1],[1,3]] x = [1,2] → x = [1/11, 7/11].
	bld := NewBuilder(2, 2)
	bld.Add(0, 0, 4)
	bld.Add(0, 1, 1)
	bld.Add(1, 0, 1)
	bld.Add(1, 1, 3)
	a := bld.Build()
	x, _, err := SolveCG(a, []float64{1, 2}, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1.0/11, 1e-8) || !almostEq(x[1], 7.0/11, 1e-8) {
		t.Errorf("x = %v, want [1/11 7/11]", x)
	}
}

func TestSolveCGRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(30)
		a := spdMatrix(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, iters, err := SolveCG(a, b, nil, SolveOptions{Tol: 1e-10})
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v after %d iters", trial, n, err, iters)
		}
		if r := residual(a, x, b); r > 1e-6 {
			t.Errorf("trial %d: residual %v too large", trial, r)
		}
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	a := Identity(5)
	// An SPD system with b = 0 has the single solution x = 0, wherever
	// the iteration was asked to start.
	for name, x0 := range map[string][]float64{
		"cold": nil,
		"warm": {1, -2, 3, 0, 0.5},
	} {
		var st SolveStats
		x, iters, err := SolveCG(a, make([]float64, 5), x0, SolveOptions{Stats: &st})
		if err != nil || iters != 0 || st.Residual != 0 || !st.Converged {
			t.Fatalf("%s: err=%v iters=%d stats=%+v", name, err, iters, st)
		}
		for _, v := range x {
			if v != 0 {
				t.Fatalf("%s: nonzero solution %v for zero rhs", name, x)
			}
		}
	}
}

func TestSolveCGWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 20
	a := spdMatrix(rng, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, _, err := SolveCG(a, b, nil, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm-starting from the solution should converge immediately (few iters).
	_, iters, err := SolveCG(a, b, x, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if iters > 2 {
		t.Errorf("warm start took %d iters, want ≤2", iters)
	}
}

func TestSolveJacobiDiagonallyDominant(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 25
	bld := NewBuilder(n, n)
	for r := 0; r < n; r++ {
		off := 0.0
		for c := 0; c < n; c++ {
			if c != r && rng.Float64() < 0.2 {
				v := rng.NormFloat64()
				bld.Add(r, c, v)
				off += math.Abs(v)
			}
		}
		bld.Add(r, r, off+1+rng.Float64())
	}
	a := bld.Build()
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, _, err := SolveJacobi(a, b, SolveOptions{Tol: 1e-9, MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if r := residual(a, x, b); r > 1e-6 {
		t.Errorf("residual %v too large", r)
	}
}

func TestSolveJacobiZeroDiagonalErrors(t *testing.T) {
	bld := NewBuilder(2, 2)
	bld.Add(0, 1, 1)
	bld.Add(1, 0, 1)
	a := bld.Build()
	if _, _, err := SolveJacobi(a, []float64{1, 1}, SolveOptions{}); err == nil {
		t.Error("expected error for zero diagonal")
	}
}

func TestSolversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 15
	// Diagonally dominant SPD so both solvers apply.
	bld := NewBuilder(n, n)
	for r := 0; r < n; r++ {
		for c := r + 1; c < n; c++ {
			if rng.Float64() < 0.2 {
				v := rng.Float64() * 0.1
				bld.Add(r, c, v)
				bld.Add(c, r, v)
			}
		}
		bld.Add(r, r, 2+rng.Float64())
	}
	a := bld.Build()
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x1, _, err1 := SolveCG(a, b, nil, SolveOptions{Tol: 1e-12})
	x2, _, err2 := SolveJacobi(a, b, SolveOptions{Tol: 1e-12, MaxIter: 5000})
	if err1 != nil || err2 != nil {
		t.Fatalf("err1=%v err2=%v", err1, err2)
	}
	for i := range x1 {
		if !almostEq(x1[i], x2[i], 1e-6) {
			t.Fatalf("solvers disagree at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}

func TestSolveCGNoConvergenceBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 40
	a := spdMatrix(rng, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	_, _, err := SolveCG(a, b, nil, SolveOptions{Tol: 1e-14, MaxIter: 1})
	if err == nil {
		t.Skip("converged in one iteration; acceptable but unusual")
	}
	if err != ErrNoConvergence {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

// Property: CG solves Eq.15-shaped systems (1+Σα)I − Σα L with L = row/col
// scaled W Wᵀ, the exact structure the regularization framework produces.
func TestPropertyCGOnRegularizationSystems(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		// Nonnegative affinity W.
		wb := NewBuilder(n, n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				if rng.Float64() < 0.3 {
					wb.Add(r, c, rng.Float64())
				}
			}
		}
		w := wb.Build()
		wwT := MulMat(w, w.Transpose())
		// Symmetric normalization S = D^{-1/2} W Wᵀ D^{-1/2}.
		d := make([]float64, n)
		for r := 0; r < n; r++ {
			d[r] = wwT.RowSum(r)
			if d[r] == 0 {
				d[r] = 1
			}
		}
		nb := NewBuilder(n, n)
		for r := 0; r < n; r++ {
			wwT.Row(r, func(c int, v float64) {
				nb.Add(r, c, v/math.Sqrt(d[r]*d[c]))
			})
		}
		s := nb.Build()
		alpha := rng.Float64() * 2
		// A = (1+α)I − α·S: SPD because eigenvalues of S lie in [−1, 1].
		aMat := Add(Identity(n).Scale(1+alpha), s, -alpha)
		b := make([]float64, n)
		b[rng.Intn(n)] = 1
		x, _, err := SolveCG(aMat, b, nil, SolveOptions{Tol: 1e-10})
		if err != nil {
			return false
		}
		return residual(aMat, x, b) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
