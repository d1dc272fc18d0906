package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// testRegistry builds a registry exercising every series type: a
// counter, a gauge, a labelled histogram family and a label-less
// histogram with exemplars enabled.
func testRegistry() *Registry {
	r := NewRegistry()
	r.CounterFunc("test_requests_total", "Requests served.", nil, func() float64 { return 42 })
	r.GaugeFunc("test_depth", "Queue depth.", Labels{"gate": "suggest"}, func() float64 { return 3 })
	for _, stage := range []string{"solve", "hitting"} {
		h := r.NewHistogram("test_stage_seconds", "Per-stage latency.", []float64{0.01, 0.1, 1}, Labels{"stage": stage})
		h.Observe(0.005)
		h.Observe(0.5)
		h.Observe(5) // overflow bucket
	}
	h := r.NewHistogram("test_e2e_seconds", "End-to-end latency.", []float64{0.01, 0.1, 1}, nil).
		EnableExemplars(-1)
	h.ObserveExemplar(0.005, "req1", "trc1")
	h.ObserveExemplar(0.5, "req2", "trc2")
	return r
}

func TestLintClassicExposition(t *testing.T) {
	var b strings.Builder
	testRegistry().WritePrometheus(&b)
	out := b.String()
	if err := LintText(out); err != nil {
		t.Fatalf("classic exposition fails lint: %v\n%s", err, out)
	}
	// Exemplars must NOT leak into the classic format.
	if strings.Contains(out, "trace_id") {
		t.Fatalf("classic exposition carries exemplars:\n%s", out)
	}
	if strings.Contains(out, "# EOF") {
		t.Fatalf("classic exposition carries OpenMetrics terminator:\n%s", out)
	}
}

func TestLintOpenMetricsExposition(t *testing.T) {
	var b strings.Builder
	testRegistry().WriteOpenMetrics(&b)
	out := b.String()
	if err := LintOpenMetrics(out); err != nil {
		t.Fatalf("OpenMetrics exposition fails lint: %v\n%s", err, out)
	}
	// The counter family must drop _total in its TYPE line while the
	// sample keeps it.
	if !strings.Contains(out, "# TYPE test_requests counter") {
		t.Fatalf("counter family not declared without _total:\n%s", out)
	}
	if !strings.Contains(out, "test_requests_total 42") {
		t.Fatalf("counter sample lost its _total suffix:\n%s", out)
	}
	// The exemplar-enabled histogram's occupied buckets carry exemplars.
	if !strings.Contains(out, `# {trace_id="trc1",request_id="req1"} 0.005`) {
		t.Fatalf("low-bucket exemplar missing:\n%s", out)
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("missing # EOF terminator:\n%s", out)
	}
}

func TestLintRejectsViolations(t *testing.T) {
	cases := []struct {
		name string
		om   bool
		data string
	}{
		{"undeclared family", false, "some_metric 1\n"},
		{"missing +Inf bucket", false, "# TYPE h histogram\n" +
			`h_bucket{le="1"} 2` + "\nh_sum 1\nh_count 2\n"},
		{"count disagrees with +Inf", false, "# TYPE h histogram\n" +
			`h_bucket{le="1"} 2` + "\n" + `h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 3\n"},
		{"non-cumulative buckets", false, "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 3\n"},
		{"le not ascending", false, "# TYPE h histogram\n" +
			`h_bucket{le="2"} 1` + "\n" + `h_bucket{le="1"} 1` + "\n" +
			`h_bucket{le="+Inf"} 1` + "\nh_sum 1\nh_count 1\n"},
		{"missing _sum", false, "# TYPE h histogram\n" + `h_bucket{le="+Inf"} 1` + "\nh_count 1\n"},
		{"exemplar in classic format", false, "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 1 # {trace_id="t"} 0.5` + "\nh_sum 1\nh_count 1\n"},
		{"missing EOF", true, "# TYPE c counter\nc_total 1\n"},
		{"counter sample without _total", true, "# TYPE c counter\nc 1\n# EOF\n"},
		{"content after EOF", true, "# TYPE c counter\nc_total 1\n# EOF\nc_total 2\n"},
		{"exemplar on non-bucket sample", true, "# TYPE c counter\n" +
			`c_total 1 # {trace_id="t"} 0.5` + "\n# EOF\n"},
		{"malformed exemplar", true, "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 1 # trace_id="t" 0.5` + "\nh_sum 1\nh_count 1\n# EOF\n"},
		{"exemplar labels over 128 runes", true, "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 1 # {trace_id="` + strings.Repeat("x", 130) + `"} 0.5` +
			"\nh_sum 1\nh_count 1\n# EOF\n"},
		{"duplicate TYPE", false, "# TYPE c counter\n# TYPE c counter\nc 1\n"},
		{"bad metric name", false, "# TYPE 9bad counter\n"},
	}
	for _, tc := range cases {
		lint := LintText
		if tc.om {
			lint = LintOpenMetrics
		}
		if err := lint(tc.data); err == nil {
			t.Errorf("%s: lint accepted invalid exposition:\n%s", tc.name, tc.data)
		}
	}
}

func TestExemplarRotationRateLimit(t *testing.T) {
	h := NewHistogram([]float64{1}).EnableExemplars(time.Hour)
	h.ObserveExemplar(0.5, "req1", "trc1")
	h.ObserveExemplar(0.6, "req2", "trc2") // within minAge: must not rotate
	snap := h.Snapshot()
	if snap.Exemplars[0] == nil || snap.Exemplars[0].TraceID != "trc1" {
		t.Fatalf("exemplar rotated within minAge: %+v", snap.Exemplars[0])
	}
	if snap.Count != 2 {
		t.Fatalf("rate limit must not drop observations: count = %d", snap.Count)
	}

	// Negative minAge rotates on every observation (the test hook).
	h2 := NewHistogram([]float64{1}).EnableExemplars(-1)
	h2.ObserveExemplar(0.5, "req1", "trc1")
	h2.ObserveExemplar(0.6, "req2", "trc2")
	if ex := h2.Snapshot().Exemplars[0]; ex == nil || ex.TraceID != "trc2" {
		t.Fatalf("negative minAge did not rotate: %+v", ex)
	}
}

func TestExemplarDisabledAndEmptyTrace(t *testing.T) {
	// Without EnableExemplars, ObserveExemplar must behave exactly like
	// Observe and the snapshot must not report exemplar slots.
	h := NewHistogram([]float64{1})
	h.ObserveExemplar(0.5, "req1", "trc1")
	snap := h.Snapshot()
	if snap.Exemplars != nil {
		t.Fatalf("disabled histogram reports exemplars: %+v", snap.Exemplars)
	}
	if snap.Count != 1 {
		t.Fatalf("observation lost: count = %d", snap.Count)
	}
	// An empty trace ID records the value but pins nothing.
	h2 := NewHistogram([]float64{1}).EnableExemplars(-1)
	h2.ObserveExemplar(0.5, "req1", "")
	if ex := h2.Snapshot().Exemplars[0]; ex != nil {
		t.Fatalf("empty trace ID pinned an exemplar: %+v", ex)
	}
}

// TestExemplarScrapeHammer is the -race hammer: concurrent exemplar
// observations and OpenMetrics scrapes must stay linter-clean and
// race-free.
func TestExemplarScrapeHammer(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("hammer_seconds", "Hammered histogram.", []float64{0.01, 0.1, 1}, nil).
		EnableExemplars(-1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vals := []float64{0.005, 0.05, 0.5, 5}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h.ObserveExemplar(vals[i%len(vals)], "req", "trc")
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		r.WriteOpenMetrics(&b)
		if err := LintOpenMetrics(b.String()); err != nil {
			// A scrape concurrent with observations may catch _count
			// mid-update relative to the buckets; the invariant the ring
			// guarantees is per-line well-formedness, so only re-check
			// a quiescent scrape below for the full invariants.
			if !strings.Contains(err.Error(), "_count") {
				t.Fatalf("scrape %d: %v\n%s", i, err, b.String())
			}
		}
	}
	close(stop)
	wg.Wait()
	// Quiescent: all invariants must hold exactly.
	var b strings.Builder
	r.WriteOpenMetrics(&b)
	if err := LintOpenMetrics(b.String()); err != nil {
		t.Fatalf("quiescent scrape: %v\n%s", err, b.String())
	}
}
