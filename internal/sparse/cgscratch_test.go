package sparse

import (
	"math/rand"
	"sync"
	"testing"
)

// TestSolveCGConcurrentPooledScratch hammers concurrent solves over the
// package-level CG scratch pool (run under -race in CI): pooled work
// vectors must never bleed between simultaneous solves, so every
// concurrent solution and iteration count must match the sequential
// reference exactly.
func TestSolveCGConcurrentPooledScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type system struct {
		a *Matrix
		b []float64
		x []float64
		n int
	}
	// Mixed sizes so pooled entries are handed between solves of
	// different n, exercising the resize path.
	systems := make([]system, 3)
	for s, n := range []int{60, 150, 90} {
		a := spdMatrix(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, _, err := SolveCG(a, b, nil, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		systems[s] = system{a: a, b: b, x: x, n: n}
	}
	const goroutines, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				sys := systems[(g+r)%len(systems)]
				x, _, err := SolveCG(sys.a, sys.b, nil, SolveOptions{})
				if err != nil {
					errs <- err.Error()
					return
				}
				for i := range sys.x {
					if x[i] != sys.x[i] {
						errs <- "solution diverged under concurrent pooled solves"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// BenchmarkSolveCG measures the per-solve cost on a regularization-sized
// SPD system; with the scratch pool the steady-state allocations are
// the returned solution vector plus Stats bookkeeping, not the six work
// vectors the solver used to allocate per call.
func BenchmarkSolveCG(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	n := 400
	a := spdMatrix(rng, n)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := SolveCG(a, rhs, nil, SolveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
