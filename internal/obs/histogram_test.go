package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// refQuantile is the sort-based reference the histogram estimator is
// checked against: the same rank definition (cum ≥ q·n) applied to the
// exact sorted sample.
func refQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestQuantileAccuracy drives random samples through the histogram and
// checks every estimated quantile against the sort-based reference.
// With factor-2 buckets, estimate and reference land in the same bucket
// [lo, 2·lo], so the ratio is bounded by the bucket factor.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		h := NewHistogram(LatencyBuckets)
		n := 2000 + rng.Intn(3000)
		vals := make([]float64, n)
		for i := range vals {
			// Log-uniform across the bucket range, like real latencies.
			vals[i] = math.Exp(rng.Float64()*math.Log(1e6)) * 1e-6
			h.Observe(vals[i])
		}
		sort.Float64s(vals)
		snap := h.Snapshot()
		for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
			ref := refQuantile(vals, q)
			est := snap.Quantile(q)
			if ratio := est / ref; ratio < 0.5 || ratio > 2.0 {
				t.Errorf("trial %d q=%g: estimate %g vs reference %g (ratio %g outside bucket factor)",
					trial, q, est, ref, ratio)
			}
		}
		if got := snap.Quantile(1.0); got != vals[n-1] {
			// p100 must be the tracked exact max, not a bucket bound.
			t.Errorf("trial %d: p100 = %g, want exact max %g", trial, got, vals[n-1])
		}
	}
}

func TestHistogramSnapshotAggregates(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100, -2, math.NaN()} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Sum != 105 { // negatives and NaN clamp to 0
		t.Errorf("sum = %g, want 105", s.Sum)
	}
	if s.Max != 100 {
		t.Errorf("max = %g, want 100", s.Max)
	}
	// Buckets: ≤1 holds {0.5, 0, 0}, ≤2 holds {1.5}, ≤4 holds {3}, overflow {100}.
	want := []uint64{3, 1, 1, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
	if m := s.Mean(); m != 105.0/6 {
		t.Errorf("mean = %g, want %g", m, 105.0/6)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
	h.Observe(10) // overflow bucket only
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 10 {
		t.Errorf("overflow-only quantile = %g, want tracked max 10", got)
	}
	if got := s.Quantile(-1); got != 10 {
		t.Errorf("q<0 should clamp; got %g", got)
	}
	if got := s.Quantile(2); got != 10 {
		t.Errorf("q>1 should clamp; got %g", got)
	}
}

// TestHistogramConcurrent hammers Observe from many goroutines; run
// under -race it proves the lock-free claim, and the final snapshot
// must account for every observation exactly.
func TestHistogramConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perG       = 10000
	)
	h := NewHistogram(CountBuckets)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(i%100 + g))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	var bucketTotal uint64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
	wantSum := 0.0
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			wantSum += float64(i%100 + g)
		}
	}
	if math.Abs(s.Sum-wantSum) > 1e-6*wantSum {
		t.Errorf("sum = %g, want %g", s.Sum, wantSum)
	}
	if s.Max != 99+goroutines-1 {
		t.Errorf("max = %g, want %d", s.Max, 99+goroutines-1)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	if !sort.Float64sAreSorted(LatencyBuckets) || !sort.Float64sAreSorted(CountBuckets) || !sort.Float64sAreSorted(ResidualBuckets) {
		t.Fatal("default bucket layouts must be sorted ascending")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExpBuckets(0, 2, 3) should panic")
		}
	}()
	ExpBuckets(0, 2, 3)
}
