package randomwalk

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// randTransition builds a random sub-stochastic transition matrix with
// the pathologies the kernel must handle: rows whose mass sums below 1
// (dangling mass), fully empty rows (disconnected nodes), and — when
// isolate > 0 — a trailing block of nodes whose edges stay inside the
// block, unreachable from (and unable to reach) the rest.
func randTransition(rng *rand.Rand, n, deg, isolate int) *sparse.Matrix {
	b := sparse.NewBuilder(n, n)
	edge := func(i, lo, hi int) {
		d := 1 + rng.Intn(deg)
		w := make([]float64, d)
		sum := 0.0
		for e := range w {
			w[e] = rng.Float64()
			sum += w[e]
		}
		// Random total row mass in [0.6, 1]: most rows keep a little
		// dangling mass, exercising the self-loop term.
		mass := 0.6 + 0.4*rng.Float64()
		for e := range w {
			b.Add(i, lo+rng.Intn(hi-lo), mass*w[e]/sum)
		}
	}
	main := n - isolate
	for i := 0; i < main; i++ {
		if rng.Float64() < 0.1 {
			continue // fully disconnected row
		}
		edge(i, 0, main)
	}
	for i := main; i < n; i++ {
		edge(i, main, n)
	}
	return b.Build()
}

// TestFlatMatchesClosure is the kernel parity table: the flat CSR
// kernel must reproduce the closure-based reference to 1e-12 on random
// transition matrices with dangling rows and unreachable components.
func TestFlatMatchesClosure(t *testing.T) {
	cases := []struct {
		name            string
		n, deg, isolate int
		l               int
		seed            int64
	}{
		{"small", 30, 4, 0, 10, 1},
		{"medium", 200, 8, 0, 10, 2},
		{"dangling-heavy", 120, 3, 0, 25, 3},
		{"unreachable-block", 150, 6, 30, 10, 4},
		{"deep", 80, 5, 10, 100, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			trans := randTransition(rng, tc.n, tc.deg, tc.isolate)
			inS := make([]bool, tc.n)
			set := map[int]bool{}
			for len(set) < 3 {
				i := rng.Intn(tc.n - tc.isolate) // S in the main block
				set[i] = true
				inS[i] = true
			}
			want := TruncatedHittingTime(trans, func(i int) bool { return inS[i] }, tc.l)
			got, iters := TruncatedHittingTimeFlat(trans, inS, HittingTimeOpts{Steps: tc.l})
			if iters != tc.l {
				t.Fatalf("iters = %d, want full %d (no Tol set)", iters, tc.l)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-12 {
					t.Fatalf("h[%d] = %v, reference %v", i, got[i], want[i])
				}
			}
			// Unreachable nodes saturate at l (up to rounding of the
			// per-row mass: their full probability returns to the block
			// every step, but as a sum of individually rounded products).
			for i := tc.n - tc.isolate; i < tc.n; i++ {
				if math.Abs(got[i]-float64(tc.l)) > 1e-9*float64(tc.l) {
					t.Errorf("unreachable h[%d] = %v, want ≈%d", i, got[i], tc.l)
				}
			}
		})
	}
}

// TestFlatEarlyExit verifies the convergence exit: on a graph where
// every non-target node steps straight into S, h stabilizes after two
// sweeps, so the kernel must stop far short of l with the exact
// fixed-point values.
func TestFlatEarlyExit(t *testing.T) {
	const n, l = 50, 200
	b := sparse.NewBuilder(n, n)
	for i := 1; i < n; i++ {
		b.Add(i, 0, 1.0) // every node moves to node 0 in one step
	}
	trans := b.Build()
	inS := make([]bool, n)
	inS[0] = true
	full, fullIters := TruncatedHittingTimeFlat(trans, inS, HittingTimeOpts{Steps: l})
	full = append([]float64(nil), full...)
	if fullIters != l {
		t.Fatalf("fixed-l run stopped at %d", fullIters)
	}
	got, iters := TruncatedHittingTimeFlat(trans, inS, HittingTimeOpts{Steps: l, Tol: 1e-9})
	if iters >= l {
		t.Fatalf("early exit did not fire: %d sweeps", iters)
	}
	if iters != 2 {
		t.Errorf("expected exactly 2 sweeps (stabilize + confirm), got %d", iters)
	}
	for i := range full {
		if got[i] != full[i] {
			t.Fatalf("early-exited h[%d] = %v differs from fixed point %v", i, got[i], full[i])
		}
	}
}

// TestFlatEarlyExitNeverFiresOnUnreachable pins the documented
// semantics: nodes that cannot reach S grow by 1 per sweep, so the
// exit must not trigger and saturation at l is preserved.
func TestFlatEarlyExitNeverFiresOnUnreachable(t *testing.T) {
	const n, l = 20, 30
	trans := sparse.NewBuilder(n, n).Build() // no edges at all
	inS := make([]bool, n)
	inS[0] = true
	h, iters := TruncatedHittingTimeFlat(trans, inS, HittingTimeOpts{Steps: l, Tol: 1e-6})
	if iters != l {
		t.Fatalf("exit fired at %d on an unreachable graph", iters)
	}
	for i := 1; i < n; i++ {
		if h[i] != float64(l) {
			t.Errorf("h[%d] = %v, want saturation at %d", i, h[i], l)
		}
	}
}

// TestFlatScratchReuse checks that caller scratch is actually reused
// (the result aliases it) and that repeated sweeps over the same
// scratch stay correct.
func TestFlatScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trans := randTransition(rng, 100, 5, 0)
	inS := make([]bool, 100)
	inS[3] = true
	var scratch SweepScratch
	dangling := DanglingMass(trans)
	want, _ := TruncatedHittingTimeFlat(trans, inS, HittingTimeOpts{Steps: 10})
	want = append([]float64(nil), want...)
	for round := 0; round < 3; round++ {
		got, _ := TruncatedHittingTimeFlat(trans, inS, HittingTimeOpts{
			Steps: 10, Dangling: dangling, Scratch: &scratch,
		})
		if &got[0] != &scratch.h[0] {
			t.Fatal("result does not alias the provided scratch")
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: h[%d] = %v, want %v", round, i, got[i], want[i])
			}
		}
	}
}

// TestDanglingMass checks the precomputation against the kernel's
// historical inline derivation.
func TestDanglingMass(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	trans := randTransition(rng, 60, 4, 0)
	d := DanglingMass(trans)
	for i := range d {
		want := 1 - trans.RowSum(i)
		if want <= 1e-12 {
			want = 0
		}
		if d[i] != want {
			t.Errorf("dangling[%d] = %v, want %v", i, d[i], want)
		}
	}
}

// allRowsSweeps is the recursion the kernel ran before it learned to
// skip known work: every sweep, the first included, computes every row
// from the previous vector. It is the oracle the shortcut sweeps are
// held to bit for bit.
func allRowsSweeps(trans *sparse.Matrix, inS []bool, steps int, tol float64) ([]float64, int) {
	n := trans.Rows()
	h, next := make([]float64, n), make([]float64, n)
	dangling := DanglingMass(trans)
	iters := 0
	for t := 0; t < steps; t++ {
		maxDiff := sweepRange(0, n, trans.View(), dangling, inS, h, next)
		h, next = next, h
		iters = t + 1
		if tol > 0 && maxDiff <= tol {
			break
		}
	}
	return h, iters
}

// TestShortcutSweepsBitIdentical: the closed-form first sweep and the
// candidate-rows-only last sweep change no value anyone reads and no
// sweep count — with the early exit off, armed but silent, and firing;
// at depth 1 (first sweep is the last), 2 (nothing in between) and 10;
// with nobody, somebody and everybody in S.
func TestShortcutSweepsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, fix := range []struct {
		name       string
		n, isolate int
	}{{"connected", 90, 0}, {"unreachable-block", 150, 30}, {"absorbing", 60, 0}} {
		trans := randTransition(rng, fix.n, 6, fix.isolate)
		if fix.name == "absorbing" {
			// Every row sends 90 % of its mass straight to node 0, which
			// every nonempty S below contains: the change shrinks tenfold
			// per sweep and the 1e-2 exit fires well within 10.
			b := sparse.NewBuilder(fix.n, fix.n)
			for i := 0; i < fix.n; i++ {
				b.Add(i, 0, 0.9)
				b.Add(i, 1+rng.Intn(fix.n-1), 0.1)
			}
			trans = b.Build()
		}
		rows := make([]int, 0, 25)
		for len(rows) < cap(rows) {
			rows = append(rows, rng.Intn(fix.n))
		}
		for _, sSize := range []int{0, 3, fix.n} {
			inS := make([]bool, fix.n)
			for _, i := range rng.Perm(fix.n)[:sSize] {
				inS[i] = true
			}
			inS[0] = sSize > 0
			for _, tol := range []float64{-1, 1e-9, 1e-2} {
				for _, steps := range []int{1, 2, 10} {
					want, wantIters := allRowsSweeps(trans, inS, steps, tol)
					if fix.name == "absorbing" && tol == 1e-2 && steps == 10 && sSize == 3 && wantIters == steps {
						t.Fatalf("%s: early exit never fired; the fixture no longer covers it", fix.name)
					}
					full, iters := TruncatedHittingTimeFlat(trans, inS, HittingTimeOpts{Steps: steps, Tol: tol})
					if iters != wantIters {
						t.Fatalf("%s |S|=%d tol %v steps %d: %d sweeps, all-rows oracle %d", fix.name, sSize, tol, steps, iters, wantIters)
					}
					for i := range want {
						if full[i] != want[i] {
							t.Fatalf("%s |S|=%d tol %v steps %d: h[%d] = %v, oracle %v", fix.name, sSize, tol, steps, i, full[i], want[i])
						}
					}
					part, iters := TruncatedHittingTimeFlat(trans, inS, HittingTimeOpts{Steps: steps, Tol: tol, Rows: rows, Scratch: &SweepScratch{}})
					if iters != wantIters {
						t.Fatalf("%s |S|=%d tol %v steps %d: %d sweeps with Rows, oracle %d", fix.name, sSize, tol, steps, iters, wantIters)
					}
					for _, i := range rows {
						if part[i] != want[i] {
							t.Fatalf("%s |S|=%d tol %v steps %d: with Rows h[%d] = %v, oracle %v", fix.name, sSize, tol, steps, i, part[i], want[i])
						}
					}
				}
			}
		}
	}
}
