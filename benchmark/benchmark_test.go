package main

import (
	"context"
	"io"
	"math"
	"reflect"
	"regexp"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/synth"
)

// The tests run the real harness on a 10-user world with a short
// training run, so the whole file stays within a couple of seconds.
var tinySizes = sizes{
	head:     20,
	headWarm: 20, headTimed: 100,
	tailWarm: 2, tailTimed: 12,
	batchPairs: 4,
	rwWarm:     20, rwCycles: 2, rwOps: 30,
}

// The tests run from the package directory, one level below the
// checkout root the benchmark itself starts in.
func loadTestSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyPlan(t *testing.T, workload string, seed int64, trace bool) plan {
	return plan{
		spec:     loadTestSpec(t),
		workload: workload, seed: seed, trace: trace,
		world:  worldConfig(worldSeed, 10, 40),
		engine: engineConfig(worldSeed, 5),
		sizes:  tinySizes,
		setups: 1, passes: 2,
		samples: traceSamples{ops: 12, stages: 4},
		report:  io.Discard,
	}
}

var tiny struct {
	once   sync.Once
	world  *synth.World
	engine *core.Engine
	err    error
}

func tinyWorld(t *testing.T) (*synth.World, *core.Engine) {
	t.Helper()
	tiny.once.Do(func() {
		p := tinyPlan(t, wlHeadCached, 1, false)
		tiny.world, tiny.engine, tiny.err = buildEngine(p.world, p.engine)
	})
	if tiny.err != nil {
		t.Fatal(tiny.err)
	}
	return tiny.world, tiny.engine
}

// wire renders a script as the bytes it would put on a connection.
func wire(t *testing.T, s script) []string {
	t.Helper()
	var out []string
	for _, part := range [][]*request{s.warmup, s.timed, s.probe} {
		for _, op := range part {
			out = append(out, op.req.Method+" "+op.req.RequestURI+"\n"+string(op.body))
		}
		out = append(out, "--")
	}
	return out
}

func TestScriptIsAFunctionOfTheSeed(t *testing.T) {
	w, _ := tinyWorld(t)
	for _, wl := range loadTestSpec(t).Workloads {
		name := wl.Name
		build := func(seed int64) []string {
			s, err := newScriptBuilder(w, seed, tinySizes.head).build(name, tinySizes)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return wire(t, s)
		}
		a, b, c := build(7), build(7), build(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different scripts", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same script", name)
		}
	}
}

func TestTailColdNeverRepeatsAndAvoidsTheHead(t *testing.T) {
	w, _ := tinyWorld(t)
	b := newScriptBuilder(w, 3, tinySizes.head)
	s, err := b.build(wlTailCold, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.timed) != tinySizes.tailTimed || len(s.warmup) != tinySizes.tailWarm {
		t.Fatalf("script has %d warm-up + %d timed requests", len(s.warmup), len(s.timed))
	}
	head := map[string]bool{}
	for _, q := range b.pools.head {
		head[q] = true
	}
	seen := map[string]bool{}
	for _, op := range append(append([]*request(nil), s.warmup...), s.timed...) {
		q := op.items[0].query
		if seen[q] {
			t.Errorf("query %q repeats", q)
		}
		seen[q] = true
		if head[q] {
			t.Errorf("query %q is one of the head %d", q, tinySizes.head)
		}
	}
}

func TestHotBatchPayloadIsOneSolveGroupOfDistinctKeys(t *testing.T) {
	w, _ := tinyWorld(t)
	s, err := newScriptBuilder(w, 3, tinySizes.head).build(wlHotBatch, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.timed) != tinySizes.batchPairs || len(s.warmup) != len(s.timed) {
		t.Fatalf("script has %d warm-up + %d timed payloads", len(s.warmup), len(s.timed))
	}
	fingerprint := func(it item) string {
		req := coreRequest(it)
		return core.ContextFingerprint(req.Context, req.At, 0)
	}
	groups := map[string]bool{}
	for i, op := range s.timed {
		if len(op.items) != batchLanes {
			t.Fatalf("payload %d has %d lanes", i, len(op.items))
		}
		warm := s.warmup[i].items
		if len(warm) != 1 {
			t.Fatalf("warm-up %d has %d items", i, len(warm))
		}
		sig := core.SolveSignature(coreRequest(warm[0]))
		if groups[sig] {
			t.Errorf("payload %d repeats solve signature %q", i, sig)
		}
		groups[sig] = true
		fps := map[string]bool{fingerprint(warm[0]): true}
		for _, it := range op.items {
			if got := core.SolveSignature(coreRequest(it)); got != sig {
				t.Errorf("payload %d: lane signature %q, warm-up %q", i, got, sig)
			}
			fp := fingerprint(it)
			if fps[fp] {
				t.Errorf("payload %d: context fingerprint %q is shared (with a lane or the warm-up)", i, fp)
			}
			fps[fp] = true
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	v := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 15}, {5, 15}, {30, 20}, {40, 20}, {50, 35}, {95, 50}, {100, 50},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", v, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// Python: statistics.quantiles(data, n=4) → first and last cut point.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 38},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.data, q1, q3, c.q1, c.q3)
		}
	}
}

func TestFailureRules(t *testing.T) {
	ten := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	with := func(i int, s string) []string {
		out := append([]string(nil), ten...)
		out[i] = s
		return out
	}
	it := item{query: "The Query"}
	for name, c := range map[string]struct {
		list []string
		bad  bool
	}{
		"full list":       {ten, false},
		"short list":      {ten[:9], true},
		"empty list":      {nil, true},
		"duplicate":       {with(3, "a"), true},
		"own input query": {with(9, "the query"), true},
	} {
		why := checkList(it, &suggestBody{Suggestions: c.list, Diversified: c.list})
		if (why != "") != c.bad {
			t.Errorf("%s: checkList = %q", name, why)
		}
	}
}

// The stage replay states the stage configurations the engine keeps
// private; if the two drift apart the replay selects other suggestions.
func TestStageReplayMatchesEngine(t *testing.T) {
	w, e := tinyWorld(t)
	s, err := newScriptBuilder(w, 5, tinySizes.head).build(wlHotBatch, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	head, err := newScriptBuilder(w, 5, tinySizes.head).build(wlHeadCached, tinySizes)
	if err != nil {
		t.Fatal(err)
	}
	div, err := diversify.New(diversify.Default, diversify.Options{Hitting: hittingCfg})
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	for _, op := range []*request{s.timed[0], head.timed[0], head.timed[1]} {
		req := coreRequest(op.items[0])
		req.SkipPersonalization = true
		req.NoCache = true // a repeated test run must not find the first run's entry
		want, err := e.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := replayStages(tr, 0, 0, op, e, div)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.first, want.Diversified) {
			t.Errorf("%q: replay selected %v, engine %v", req.Query, got.first, want.Diversified)
		}
		if got.compactSize != want.CompactSize || got.cgIterations != want.SolveIterations {
			t.Errorf("%q: replay compact %d / %d iterations, engine %d / %d", req.Query,
				got.compactSize, got.cgIterations, want.CompactSize, want.SolveIterations)
		}
	}
}

// What a seed draws is who asks and in which order; what is asked —
// tail_cold's queries, hot_batch's pairs and lane ages, the probes — is
// the fixture, so every seed does the same kernel work and the quality
// metrics score the same lists.
func TestSeedsShareThePopulation(t *testing.T) {
	w, _ := tinyWorld(t)
	asked := func(name string, seed int64) (timed, probe map[listKey]int) {
		s, err := newScriptBuilder(w, seed, tinySizes.head).build(name, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		timed, probe = map[listKey]int{}, map[listKey]int{}
		for _, op := range s.timed {
			for _, it := range op.items {
				timed[listKey{it.query, it.ctxQuery, int64(it.ctxAge)}]++
			}
		}
		for _, op := range s.probe {
			probe[listKey{query: op.items[0].query}]++
		}
		return timed, probe
	}
	for _, name := range []string{wlTailCold, wlHotBatch} {
		a, _ := asked(name, 7)
		b, _ := asked(name, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 ask for different lists", name)
		}
	}
	for _, name := range []string{wlHeadCached, wlReadWrite} {
		_, a := asked(name, 7)
		_, b := asked(name, 8)
		if len(a) != tinySizes.head || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: probes of seeds 7 and 8 differ, or miss a head query (%d of %d)", name, len(a), tinySizes.head)
		}
	}
}

// Every name in BENCHMARK.json is well-formed, every workload it lists
// runs, and a run emits exactly the metrics it declares, each under its
// declared unit — run itself refuses to emit an undeclared metric or to
// leave a declared one out, so a clean run is the proof.
func TestRunsEmitWhatBenchmarkJSONDeclares(t *testing.T) {
	spec := loadTestSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	setup := false
	for _, m := range spec.EndToEnd {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the schema", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s [s, lower]")
	}
	for _, m := range spec.PerLayer {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || m.Bound != 0 {
			t.Errorf("per-layer metric %+v is outside the schema", m)
		}
	}
	for _, w := range spec.Workloads {
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		for _, trace := range []bool{false, true} {
			declared := spec.EndToEnd
			if trace {
				declared = spec.PerLayer
			}
			out, err := run(tinyPlan(t, w.Name, 1, trace))
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
				continue
			}
			// A traced run's verdict also covers the ladder and the
			// tracing overhead, which a dozen requests cannot settle.
			if out.Failed > 0 || out.Attempted == 0 || (!trace && !out.Correct) {
				t.Errorf("%s trace=%v: %d of %d failed, correct=%v", w.Name, trace, out.Failed, out.Attempted, out.Correct)
			}
			for _, d := range declared {
				if got, ok := out.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s trace=%v: %s emitted as %+v, declared [%s]", w.Name, trace, d.Name, got, d.Unit)
				}
			}
			if len(out.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(out.Metrics), len(declared))
			}
		}
	}
}

// Passes over one engine must answer identically: a tiny run's digest is
// the same across its passes (run checks that) and across runs.
func TestResultDigestRepeats(t *testing.T) {
	a, err := run(tinyPlan(t, wlTailCold, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(tinyPlan(t, wlTailCold, 2, true))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Correct || b.Failed > 0 || a.digest == "" || a.digest != b.digest {
		t.Errorf("digests %q (correct=%v) and %q (%d failed)", a.digest, a.Correct, b.digest, b.Failed)
	}
}
