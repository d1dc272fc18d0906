// Package obs is the reproduction's stdlib-only observability layer:
// lock-free fixed-boundary latency/depth histograms with quantile
// estimation, a Prometheus-text-format metric registry, and
// request-scoped traces carried through context.Context. It exists so
// the serving pipeline can expose the per-stage cost accounting of the
// paper's own evaluation (Fig. 7's stage breakdown, the Eq. 15 CG
// solve, Algorithm 1's hitting-time rounds) live, per request and in
// aggregate, without taking a lock on the suggestion hot path.
package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-boundary histogram safe for concurrent use. All
// updates are single atomic adds plus bounded CAS loops (sum, max), so
// concurrent Observe calls never contend on a lock — the property that
// lets it replace the serving path's old mean/max aggregates without
// changing the path's lock-freedom.
//
// Bounds are bucket UPPER bounds (Prometheus `le` semantics): bucket i
// counts observations v ≤ bounds[i]; one implicit overflow bucket
// counts the rest. Bounds must be sorted ascending and never change
// after construction.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last = overflow (+Inf)
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
	maxBits atomic.Uint64 // math.Float64bits of the running max

	// exemplars, when EnableExemplars was called, holds one recent
	// occupant per bucket (len(bounds)+1, aligned with buckets). A slot
	// is replaced at most once per exemplarMinAge, so the retention cost
	// on a hot bucket is bounded regardless of traffic; high buckets see
	// rare observations and therefore keep them — which is the point:
	// "p99 is 40ms" links to an actual 40ms request.
	exemplars      []atomic.Pointer[Exemplar]
	exemplarMinAge time.Duration
}

// Exemplar pins one concrete observation to a histogram bucket: the
// request and trace that produced the value, so a bucket count on
// /metrics can be followed to the span tree of a real request.
// Exemplars are immutable once stored.
type Exemplar struct {
	// Value is the observed value (same unit as the histogram).
	Value float64
	// TraceID and RequestID identify the occupant request.
	TraceID   string
	RequestID string
	// Time is when the observation was recorded.
	Time time.Time
}

// defaultExemplarMinAge rate-limits exemplar rotation per bucket.
const defaultExemplarMinAge = time.Second

// EnableExemplars allocates the per-bucket exemplar slots. minAge
// bounds how often one bucket's exemplar may rotate: 0 applies the
// 1-second default, negative rotates on every observation (useful in
// tests). Call before serving; it is not synchronized against
// concurrent Observe.
func (h *Histogram) EnableExemplars(minAge time.Duration) *Histogram {
	if minAge == 0 {
		minAge = defaultExemplarMinAge
	}
	h.exemplars = make([]atomic.Pointer[Exemplar], len(h.buckets))
	h.exemplarMinAge = minAge
	return h
}

// NewHistogram builds a histogram over the given upper bounds. The
// bounds slice is copied; it must be sorted ascending.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. Negative values clamp to zero (durations
// and counts are the intended domain).
func (h *Histogram) Observe(v float64) { h.observe(v) }

// observe is the shared update path; it returns the bucket index so
// ObserveExemplar can attach the exemplar without a second search.
func (h *Histogram) observe(v float64) int {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v, overflow otherwise
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	return i
}

// ObserveExemplar records one value and, when exemplar retention is
// enabled and the bucket's current exemplar is older than the rotation
// age, pins this observation's request/trace IDs to the bucket. Without
// EnableExemplars (or with an empty trace ID) it is exactly Observe —
// the hot path pays one nil check. The replacement itself is a single
// allocation, rate-limited per bucket.
func (h *Histogram) ObserveExemplar(v float64, requestID, traceID string) {
	i := h.observe(v)
	if h.exemplars == nil || traceID == "" {
		return
	}
	cur := h.exemplars[i].Load()
	now := time.Now()
	if cur != nil && now.Sub(cur.Time) < h.exemplarMinAge {
		return
	}
	// A racing replacement loses; either exemplar is a real recent
	// occupant of the bucket, which is all the contract promises.
	h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID, RequestID: requestID, Time: now})
}

// Snapshot is a point-in-time copy of a histogram's state.
type Snapshot struct {
	// Bounds are the bucket upper bounds (shared, read-only).
	Bounds []float64
	// Counts are per-bucket (non-cumulative) observation counts;
	// len(Bounds)+1 with the overflow bucket last.
	Counts []uint64
	Count  uint64
	Sum    float64
	Max    float64
	// Exemplars are the per-bucket pinned observations, aligned with
	// Counts; nil when exemplar retention is disabled. Entries may be
	// nil (bucket never occupied).
	Exemplars []*Exemplar
}

// Snapshot copies the current state. Buckets are read individually, so
// a snapshot taken under concurrent writes may be off by in-flight
// observations — fine for monitoring.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Max:    math.Float64frombits(h.maxBits.Load()),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	if h.exemplars != nil {
		s.Exemplars = make([]*Exemplar, len(h.exemplars))
		for i := range h.exemplars {
			s.Exemplars[i] = h.exemplars[i].Load()
		}
	}
	return s
}

// Mean returns the average observation, 0 when empty.
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation inside the bucket holding the target rank — the same
// estimator Prometheus's histogram_quantile uses, so the numbers in
// /v1/stats and a Prometheus dashboard agree. Observations in the
// overflow bucket report the tracked exact max. Returns 0 when empty.
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(s.Bounds) {
			return s.Max // overflow bucket: no finite upper bound
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		est := lo + (hi-lo)*(rank-prev)/float64(c)
		// The tracked exact max is a tighter cap than the bucket bound.
		if est > s.Max && s.Max > 0 {
			est = s.Max
		}
		return est
	}
	return s.Max
}

// ExpBuckets returns n exponentially spaced upper bounds
// start, start·factor, start·factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}

// Default bucket layouts (documented in DESIGN.md's Observability
// section).
var (
	// LatencyBuckets covers 1µs … ~33.6s doubling per bucket — wide
	// enough for a cache hit (µs) and a cold multi-second CG solve in
	// the same histogram. Values are SECONDS (Prometheus convention).
	LatencyBuckets = ExpBuckets(1e-6, 2, 26)
	// CountBuckets covers 1 … 8192 doubling per bucket: CG iteration
	// counts, hitting-time greedy rounds, walk steps.
	CountBuckets = ExpBuckets(1, 2, 14)
	// ResidualBuckets covers 1e-12 … 10 per decade: the final relative
	// residual of the Eq. 15 solve (tol defaults to 1e-10; a residual
	// in the top decades means the solver hit its iteration budget).
	ResidualBuckets = ExpBuckets(1e-12, 10, 13)
)
