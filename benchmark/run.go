package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	pqsda "repro"
	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/querylog"
	"repro/internal/server"
	"repro/internal/synth"
)

// plan is everything one run is a function of. The full plan is fixed
// by (workload, seed, seconds); the unit tests shrink the world.
type plan struct {
	spec     *benchSpec
	workload string
	seed     int64 // draws the request script
	trace    bool
	traceOut string // span file of a traced run; "" writes none
	world    synth.Config
	engine   pqsda.Config
	sizes    sizes
	setups   int // cold builds; setup_s is their median
	passes   int // timed passes; a traced run follows each with a traced one
	samples  traceSamples
	report   io.Writer // human-readable progress and tables
}

// Run shape: the issue's three set-ups and seven passes, the passes
// shortened until 92 runs fit the driver's 3420 s with room for a slow
// day. A traced run reports no end-to-end metric, so it sets up once
// and runs tracedPairs pairs of an untraced and a traced pass instead.
const (
	fullSetups  = 3
	fullPasses  = 7
	tracedPairs = 4
	// disturbedShare is how much slower than the fastest pass a pass has
	// to be for the report to name it as disturbed.
	disturbedShare = 0.25
	// A traced run is wrong when tail_cold's stage sum sits further than
	// ladderTolerance from core.do_ms, or when recording spans slows the
	// handler loop by more than maxOverheadRatio.
	ladderTolerance  = 0.15
	maxOverheadRatio = 1.05
)

// worldSeed draws the one synthetic world every run is served from. The
// world is the fixture, not the workload: the driver judges the
// benchmark by the spread of each metric over ten different --seed
// values, and a world per seed puts world-to-world variation into that
// spread (measured here: 2–4 % of alpha_ndcg10, 5–7 % of the latencies)
// — more than the bounds the metrics are gated with. --seed therefore
// draws the traffic only.
const worldSeed = 1

func fullPlan(spec *benchSpec, workload string, seed int64, seconds int, trace bool) plan {
	p := plan{
		spec: spec, workload: workload, seed: seed, trace: trace,
		world:  worldConfig(worldSeed, 150, 40),
		engine: engineConfig(worldSeed, servingSweeps),
		sizes:  fullSizes(seconds),
		setups: fullSetups, passes: fullPasses,
		report: os.Stderr,
	}
	p.samples = fullTraceSamples(workload, p.sizes)
	if trace {
		// It times the set-up stages once more instead, which costs
		// about one more build.
		p.setups, p.passes = 1, tracedPairs
	}
	return p
}

// outcome is the result line: exactly the four keys the driver reads.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	digest string
}

// passResult is one timed pass: what the loop measured plus the
// verifier's verdict on what the program answered.
type passResult struct {
	stats   passStats
	lat     []float64 // ms
	verdict verdict
	scored  []served // the lists the quality metrics score; last pass only
	cache   cacheDelta
	gens    uint64 // generations advanced during the pass
	// deltaEntries is Engine.LastBuild().DeltaEntries after the pass's
	// last refresh.
	deltaEntries int
	// A traced pass also keeps the engine it started on and what its
	// server recorded, for the delta-rebuild span.
	engine   *core.Engine
	recorded []querylog.Entry
}

// cacheDelta is the movement of both engine caches over a timed replay.
type cacheDelta struct {
	hits, misses, coalesced, evictions int64
	compactHits, compactMisses         int64
}

func (d cacheDelta) hitRatio() float64 {
	if n := d.hits + d.misses + d.coalesced; n > 0 {
		return float64(d.hits) / float64(n)
	}
	return 0
}

func (d cacheDelta) compactHitRatio() float64 {
	if n := d.compactHits + d.compactMisses; n > 0 {
		return float64(d.compactHits) / float64(n)
	}
	return 0
}

// runner carries the state shared by the passes of one run.
type runner struct {
	p       plan
	world   *synth.World
	engine0 *core.Engine
	script  script
	cap     *capture
	maxGen  uint64 // highest engine generation any pass has used
}

func run(p plan) (outcome, error) {
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		return outcome{}, fmt.Errorf("GOMAXPROCS %d > %d CPUs: the client goroutine would share cores with the program's own goroutines", procs, cpus)
	}
	fmt.Fprintf(p.report, "# %s seed=%d world-seed=%d nproc=%d GOMAXPROCS=%d GOGC=%s %s commit=%s\n",
		p.workload, p.seed, p.world.Seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc(), runtime.Version(), commit())

	// Set-up: cold builds in this process, garbage dropped in between.
	r := &runner{p: p}
	var setupS []float64
	for i := 0; i < p.setups; i++ {
		r.world, r.engine0 = nil, nil
		w, e, d, err := coldSetup(p.world, p.engine)
		if err != nil {
			return outcome{}, err
		}
		r.world, r.engine0 = w, e
		setupS = append(setupS, d.Seconds())
	}
	var stages setupStages
	if p.trace {
		stages = timeSetupStages(r.world, p.engine)
	}

	// The program sees only the requests the script holds.
	var err error
	if r.script, err = newScriptBuilder(r.world, p.seed, p.sizes.head).build(p.workload, p.sizes); err != nil {
		return outcome{}, err
	}
	r.cap = newCapture(max(len(r.script.warmup), len(r.script.timed), len(r.script.probe)), captureBytes(r.script))

	// all is every pass in the order it ran; a traced run's untraced
	// and traced passes alternate, so each pair ran back to back.
	var all, untraced, traced []passResult
	tr := &tracer{t0: time.Now()}
	if p.trace {
		// Room for every span up front: growing the slice inside a traced
		// pass would be charged to the tracing overhead.
		tr.spans = make([]span, 0, 2*len(r.script.timed)+16*batchLanes*p.samples.stages)
	}
	for i := 0; i < p.passes; i++ {
		pr, err := r.pass(nil, !p.trace && i == p.passes-1)
		if err != nil {
			return outcome{}, fmt.Errorf("pass %d: %w", i+1, err)
		}
		all, untraced = append(all, pr), append(untraced, pr)
		if p.trace {
			tr.spans = tr.spans[:0] // the span file holds the last traced pass
			if pr, err = r.pass(tr, false); err != nil {
				return outcome{}, fmt.Errorf("traced pass %d: %w", i+1, err)
			}
			all, traced = append(all, pr), append(traced, pr)
		}
	}
	for i, pr := range all {
		fmt.Fprintf(p.report, "pass %d: %d ops in %.3fs, p50 %.4f ms, %d failed, digest %s\n",
			i+1, len(r.script.timed), pr.stats.wall.Seconds(), percentile(pr.lat, 50), pr.verdict.failed, pr.verdict.digest[:16])
	}
	reportDisturbed(p.report, all)

	out := outcome{Correct: true, digest: all[0].verdict.digest}
	for i, pr := range all {
		out.Attempted += pr.verdict.attempted
		out.Failed += pr.verdict.failed
		if pr.verdict.failed > 0 && out.Correct {
			out.Correct = false
			fmt.Fprintf(p.report, "FAILED pass %d: %s\n", i+1, pr.verdict.firstFailure)
		}
		if pr.verdict.digest != out.digest {
			out.Correct = false
			fmt.Fprintf(p.report, "FAILED pass %d: result digest %s differs from pass 1 %s\n", i+1, pr.verdict.digest, out.digest)
		}
	}
	fmt.Fprintf(p.report, "result_digest %s\n", out.digest)

	var m *metricSet
	if p.trace {
		var valid bool
		if m, valid, err = r.traced(tr, untraced, traced, stages); err != nil {
			return outcome{}, err
		}
		out.Correct = out.Correct && valid
	} else {
		m = endToEnd(p.spec, r.world, setupS, untraced, len(r.script.timed))
	}
	m.print(p.report)
	out.Metrics, err = m.complete()
	return out, err
}

// pass runs one timed pass: a fresh server on a generation no earlier
// pass has used (so both engine caches are cold without rebuilding the
// engine), the workload's untimed warm-up, then the timed script —
// recording spans if tr is given — and, if asked, the untimed probe.
func (r *runner) pass(tr *tracer, probe bool) (passResult, error) {
	eng := freshGeneration(r.engine0, r.maxGen)
	r.engine0.Cache().Purge()
	srv, err := newServer(eng)
	if err != nil {
		return passResult{}, err
	}
	defer srv.Close()
	h := srv.Handler()

	replay(h, r.script.warmup, r.cap, nil)
	for i, st := range r.cap.status {
		if st != http.StatusOK {
			return passResult{}, fmt.Errorf("warm-up op %d: status %d: %s", i, st, truncate(r.cap.body(i), 200))
		}
	}

	gen0 := srv.Engine().Generation()
	c0 := cacheCounters(srv.Engine())
	stats := replay(h, r.script.timed, r.cap, tr)
	c1 := cacheCounters(srv.Engine())
	pr := passResult{
		stats:   stats,
		lat:     nsToMs(r.cap.lat),
		verdict: verify(r.script.timed, r.cap),
		cache:   c1.sub(c0),
		gens:    srv.Engine().Generation() - gen0,

		deltaEntries: srv.Engine().LastBuild().DeltaEntries,
	}
	pr.scored = pr.verdict.lists
	if tr != nil {
		pr.engine, pr.recorded = eng, srv.Recorded().Entries
	}
	if probe && len(r.script.probe) > 0 {
		replay(h, r.script.probe, r.cap, nil)
		v := verify(r.script.probe, r.cap)
		if v.failed > 0 {
			return pr, fmt.Errorf("probe: %d of %d failed: %s", v.failed, v.attempted, v.firstFailure)
		}
		pr.scored = v.lists
	}
	r.maxGen = srv.Engine().Generation()
	if shed := shedCount(srv); shed > 0 {
		return pr, fmt.Errorf("admission shed %d requests of a single closed-loop client", shed)
	}
	return pr, nil
}

func cacheCounters(e *core.Engine) cacheDelta {
	st := e.Cache().Stats()
	cc := e.CompactCacheStats()
	return cacheDelta{st.Hits, st.Misses, st.Coalesced, st.Evictions, cc.Hits, cc.Misses}
}

func (d cacheDelta) add(o cacheDelta) cacheDelta {
	return cacheDelta{d.hits + o.hits, d.misses + o.misses, d.coalesced + o.coalesced,
		d.evictions + o.evictions, d.compactHits + o.compactHits, d.compactMisses + o.compactMisses}
}

func (d cacheDelta) sub(o cacheDelta) cacheDelta {
	return d.add(cacheDelta{-o.hits, -o.misses, -o.coalesced, -o.evictions, -o.compactHits, -o.compactMisses})
}

// shedCount is how many requests the suggest gate refused.
func shedCount(srv *server.Server) int64 {
	_, full, timeout := srv.Admission().Suggest.Stats()
	return full + timeout
}

// reportDisturbed names the passes that ran more than disturbedShare
// slower than the fastest one. Passes do identical work, so a slower
// pass measured the machine — a neighbour on the shared host — not the
// program; the floors keep it out of the metrics.
func reportDisturbed(w io.Writer, passes []passResult) {
	best := passes[0].stats.wall
	for _, p := range passes {
		best = min(best, p.stats.wall)
	}
	for i, p := range passes {
		if float64(p.stats.wall) > float64(best)*(1+disturbedShare) {
			fmt.Fprintf(w, "disturbed: pass %d took %.3fs against the fastest pass's %.3fs\n", i+1, p.stats.wall.Seconds(), best.Seconds())
		}
	}
}

// floors returns, per operation of the timed script, the lowest latency
// any pass measured for it. Every pass replays the same script from the
// same engine state, so operation i does the same work in each; what
// differs is the machine — on this kind of shared host the core's clock
// steps between turbo bins every few milliseconds and neighbours come
// and go — and that only ever adds time. The floor keeps what is
// systematic (a GC cycle that the same allocations trigger at the same
// operation in every pass) and drops what is not.
func floors(passes []passResult) []float64 {
	floor := append([]float64(nil), passes[0].lat...)
	for _, pr := range passes[1:] {
		for i, l := range pr.lat {
			floor[i] = min(floor[i], l)
		}
	}
	return floor
}

// cpuFloor is the same idea for CPU time, which the kernel only reports
// for the whole process: per stretch of the script the lowest reading
// any pass took, summed.
func cpuFloor(passes []passResult) time.Duration {
	var sum time.Duration
	for c := range passes[0].stats.chunkCPU {
		best := passes[0].stats.chunkCPU[c]
		for _, pr := range passes[1:] {
			best = min(best, pr.stats.chunkCPU[c])
		}
		sum += best
	}
	return sum
}

// endToEnd derives the end-to-end metrics from the timed passes: the
// three timing metrics over the floors, so that each is the cost of the
// script on an undisturbed machine as nearly as seven passes can tell.
// The quality metrics score the last pass's probe where
// the workload has one, else its timed lists: either way a set of lists
// fixed by the world, not drawn by the seed.
func endToEnd(spec *benchSpec, w *synth.World, setupS []float64, passes []passResult, ops int) *metricSet {
	floor := floors(passes)
	ndcg, recall := quality(w, passes[len(passes)-1].scored)
	m := newMetricSet(spec.EndToEnd)
	m.set("setup_s", median(setupS))
	m.set("latency_p50_ms", median(floor))
	m.set("throughput_rps", 1e3*float64(ops)/numeric.Sum(floor))
	m.set("cpu_ms_per_req", ms(cpuFloor(passes))/float64(ops))
	m.set("rss_peak_mb", rssPeakMB())
	m.set("alpha_ndcg10", ndcg)
	m.set("s_recall10", recall)
	return m
}

// captureBytes sizes the capture buffer per operation from the widest
// operation of the script: a suggestion response is ≈450 bytes.
func captureBytes(s script) int {
	const perItem, slack = 640, 256
	widest := 1
	for _, ops := range [][]*request{s.warmup, s.timed, s.probe} {
		for _, op := range ops {
			if len(op.items) > widest {
				widest = len(op.items)
			}
		}
	}
	return widest*perItem + slack
}

// rssPeakMB is VmHWM, the process's peak resident set, in MiB.
func rssPeakMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100(default)"
}
