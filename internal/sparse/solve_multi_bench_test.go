package sparse

import (
	"math/rand"
	"testing"
)

// The multi-RHS benchmarks share the regularization-sized system of
// BenchmarkSolveCG so ns/op are directly comparable: the batched
// numbers divided by k against the single-solve number is the tentpole
// speedup claim.
func multiBenchFixture(k int) (*Matrix, [][]float64) {
	rng := rand.New(rand.NewSource(42))
	n := 400
	a := spdMatrix(rng, n)
	b := make([][]float64, k)
	for j := range b {
		b[j] = make([]float64, n)
		for i := range b[j] {
			b[j][i] = rng.NormFloat64()
		}
	}
	return a, b
}

// benchmarkSolveCGSeq is the per-item baseline the blocked solver
// replaces: k independent SolveCG calls, k full SpMV streams per
// iteration.
func benchmarkSolveCGSeq(b *testing.B, k int) {
	a, rhs := multiBenchFixture(k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < k; j++ {
			if _, _, err := SolveCG(a, rhs[j], nil, SolveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSolveCGSeq64(b *testing.B) { benchmarkSolveCGSeq(b, 64) }

func benchmarkSolveCGMulti(b *testing.B, k int) {
	a, rhs := multiBenchFixture(k)
	dst := make([][]float64, k)
	for j := range dst {
		dst[j] = make([]float64, a.Rows())
	}
	if _, _, err := SolveCGMulti(a, rhs, dst, SolveOptions{}); err != nil {
		b.Fatal(err) // warm the block-scratch pool
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveCGMulti(a, rhs, dst, SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveCGMulti4(b *testing.B)  { benchmarkSolveCGMulti(b, 4) }
func BenchmarkSolveCGMulti16(b *testing.B) { benchmarkSolveCGMulti(b, 16) }
func BenchmarkSolveCGMulti64(b *testing.B) { benchmarkSolveCGMulti(b, 64) }
