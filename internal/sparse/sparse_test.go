package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(3, 4)
	b.Add(0, 1, 2)
	b.Add(2, 3, 5)
	b.Add(0, 1, 3) // duplicate, must sum
	m := b.Build()
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	if got := m.At(0, 1); got != 5 {
		t.Errorf("At(0,1) = %v, want 5 (duplicates summed)", got)
	}
	if got := m.At(2, 3); got != 5 {
		t.Errorf("At(2,3) = %v, want 5", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %v, want 0", got)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", m.NNZ())
	}
}

func TestBuilderDropsExactZeros(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 0, -1)
	b.Add(1, 1, 3)
	m := b.Build()
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (cancelled entry dropped)", m.NNZ())
	}
}

func TestBuilderReusable(t *testing.T) {
	b := NewBuilder(1, 1)
	b.Add(0, 0, 1)
	m1 := b.Build()
	m2 := b.Build()
	if !Equal(m1, m2, 0) {
		t.Error("two Builds of the same builder differ")
	}
}

func TestAddOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add out of range did not panic")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

func TestIdentity(t *testing.T) {
	m := Identity(4)
	x := []float64{1, 2, 3, 4}
	y := m.MulVec(x, nil)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("I·x mismatch at %d: %v != %v", i, y[i], x[i])
		}
	}
}

func TestDiagonal(t *testing.T) {
	m := Diagonal([]float64{2, 0, 3})
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", m.NNZ())
	}
	if m.At(0, 0) != 2 || m.At(2, 2) != 3 || m.At(1, 1) != 0 {
		t.Error("Diagonal entries wrong")
	}
}

func randomMatrix(rng *rand.Rand, rows, cols int, density float64) *Matrix {
	b := NewBuilder(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				b.Add(r, c, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		m := randomMatrix(rng, rows, cols, 0.4)
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := m.MulVec(x, nil)
		for r := 0; r < rows; r++ {
			want := 0.0
			for c := 0; c < cols; c++ {
				want += m.At(r, c) * x[c]
			}
			if !almostEq(got[r], want, 1e-12) {
				t.Fatalf("trial %d row %d: got %v want %v", trial, r, got[r], want)
			}
		}
	}
}

func TestMulVecTMatchesTransposeMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		m := randomMatrix(rng, rows, cols, 0.5)
		x := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := m.MulVecT(x, nil)
		want := m.Transpose().MulVec(x, nil)
		for i := range got {
			if !almostEq(got[i], want[i], 1e-12) {
				t.Fatalf("trial %d idx %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 7, 5, 0.5)
	if !Equal(m, m.Transpose().Transpose(), 0) {
		t.Error("transpose twice is not identity")
	}
}

func TestRowNormalizedStochastic(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(0, 0, 2)
	b.Add(0, 2, 6)
	b.Add(2, 1, 5)
	m := b.Build().RowNormalized()
	if !almostEq(m.RowSum(0), 1, 1e-12) {
		t.Errorf("row 0 sum = %v, want 1", m.RowSum(0))
	}
	if m.RowSum(1) != 0 {
		t.Errorf("empty row sum = %v, want 0", m.RowSum(1))
	}
	if !almostEq(m.At(0, 2), 0.75, 1e-12) {
		t.Errorf("At(0,2) = %v, want 0.75", m.At(0, 2))
	}
}

func TestAddMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 6, 6, 0.3)
	b := randomMatrix(rng, 6, 6, 0.3)
	s := Add(a, b, -2)
	for r := 0; r < 6; r++ {
		for c := 0; c < 6; c++ {
			want := a.At(r, c) - 2*b.At(r, c)
			if !almostEq(s.At(r, c), want, 1e-12) {
				t.Fatalf("(%d,%d): got %v want %v", r, c, s.At(r, c), want)
			}
		}
	}
}

func TestMulMatAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n, k, p := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := randomMatrix(rng, n, k, 0.5)
		b := randomMatrix(rng, k, p, 0.5)
		c := MulMat(a, b)
		for r := 0; r < n; r++ {
			for cc := 0; cc < p; cc++ {
				want := 0.0
				for j := 0; j < k; j++ {
					want += a.At(r, j) * b.At(j, cc)
				}
				if !almostEq(c.At(r, cc), want, 1e-10) {
					t.Fatalf("trial %d (%d,%d): got %v want %v", trial, r, cc, c.At(r, cc), want)
				}
			}
		}
	}
}

func TestScale(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randomMatrix(rng, 5, 5, 0.5)
	s := m.Scale(3)
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			if !almostEq(s.At(r, c), 3*m.At(r, c), 1e-12) {
				t.Fatalf("scale mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestDiagAndMaxAbs(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(0, 0, -7)
	b.Add(1, 2, 4)
	m := b.Build()
	d := m.Diag()
	if d[0] != -7 || d[1] != 0 || d[2] != 0 {
		t.Errorf("Diag = %v", d)
	}
	if m.MaxAbs() != 7 {
		t.Errorf("MaxAbs = %v, want 7", m.MaxAbs())
	}
}

// Property: (A+B)x == Ax + Bx for random same-shaped matrices.
func TestPropertyAddDistributes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		a := randomMatrix(rng, n, n, 0.4)
		b := randomMatrix(rng, n, n, 0.4)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		lhs := Add(a, b, 1).MulVec(x, nil)
		ax := a.MulVec(x, nil)
		bx := b.MulVec(x, nil)
		for i := range lhs {
			if !almostEq(lhs[i], ax[i]+bx[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: row sums of a row-normalized nonnegative matrix are 0 or 1.
func TestPropertyRowNormalized(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		b := NewBuilder(n, n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				if rng.Float64() < 0.3 {
					b.Add(r, c, rng.Float64()+0.01)
				}
			}
		}
		m := b.Build().RowNormalized()
		for r := 0; r < n; r++ {
			s := m.RowSum(r)
			if s != 0 && !almostEq(s, 1, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAppendNonzeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	row := []float64{0, 2.5, negZero, -1, 0, math.NaN(), 5e-324}
	colIdx, val := []int{9}, []float64{7}
	colIdx, val = AppendNonzeros(row, colIdx, val)
	wantCols := []int{9, 1, 3, 5, 6}
	if len(colIdx) != len(wantCols) || len(val) != len(wantCols) {
		t.Fatalf("appended to %v / %v, want columns %v", colIdx, val, wantCols)
	}
	for i, c := range wantCols {
		if colIdx[i] != c {
			t.Fatalf("columns %v, want %v", colIdx, wantCols)
		}
	}
	if val[0] != 7 || val[1] != 2.5 || val[2] != -1 || !math.IsNaN(val[3]) || val[4] != 5e-324 {
		t.Fatalf("values %v", val)
	}
	for j, a := range row {
		if a != 0 || math.Signbit(a) {
			t.Fatalf("row[%d] = %v after emit, want +0", j, a)
		}
	}
	// An all-zero row appends nothing, whatever the spare capacity.
	colIdx, val = AppendNonzeros(make([]float64, 50), colIdx, val)
	if len(colIdx) != len(wantCols) || len(val) != len(wantCols) {
		t.Fatalf("zero row appended entries: %v", colIdx)
	}
}
