package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/diversify"
	"repro/internal/hittingtime"
	"repro/internal/numeric"
	"repro/internal/querylog"
	"repro/internal/randomwalk"
	"repro/internal/regularize"
	"repro/internal/sparse"
)

// A traced run measures the same requests at three depths:
//
//	A  through the handler: a traced pass is a timed pass whose replay
//	   loop also records one span per request, and it runs right after
//	   an untraced pass, so the per-request ratio of the two is the
//	   tracing overhead and nothing else;
//	B  through Engine.Do / Engine.DoBatch on an engine generation of its
//	   own, warmed as the handler was, so the call finds the caches as
//	   the handler found them;
//	C  stage by stage through the public functions of each layer,
//	   immediately after the same request's B call, so the ratio of the
//	   stage sum to the engine call — the ladder — compares two
//	   measurements taken milliseconds apart, not two sweeps between
//	   which the machine may have changed speed.
//
// Every call is one span {name, start, end, id, parent, request}. The B
// span of a request is recorded as the child of its A span and the C
// spans as children of the B span: they are replays of the work the
// parent did, not calls nested in it, so a self time is the parent's
// duration minus its children's durations.

// span is one timed call, as written to the span file.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"` // ns since the traced pass began
	End     int64  `json:"end"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`  // 0 = none
	Request int    `json:"request"` // position in the timed script
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// time runs fn as one span and returns the span's id and duration.
func (t *tracer) time(name string, parent, request int, fn func()) (int, time.Duration) {
	id := len(t.spans) + 1
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{name, int64(start), int64(end), id, parent, request})
	return id, end - start
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceSamples sizes sweeps B and C: how long a prefix of the timed
// script goes through the engine call, and how many distinct requests
// of it are then taken apart.
type traceSamples struct {
	ops, stages int
}

func fullTraceSamples(workload string, sz sizes) traceSamples {
	switch workload {
	case wlHeadCached:
		return traceSamples{ops: 20000, stages: 60}
	case wlTailCold:
		return traceSamples{ops: 200, stages: 200}
	case wlHotBatch:
		return traceSamples{ops: 60, stages: 20}
	default: // read_write: two full cycles, refreshes included
		return traceSamples{ops: 2 * sz.rwOps, stages: 60}
	}
}

// Stage configurations as pqsda.NewEngine leaves them: every stage at
// its package defaults. The engine keeps its config private, so the
// replay states them here; TestStageReplayMatchesEngine holds the two
// together.
var (
	compactCfg    = bipartite.CompactConfig{}
	regularizeCfg = regularize.Config{}
	hittingCfg    = hittingtime.Config{}
	// contextLambda is the Eq. 7 decay scale core hands
	// regularize.ContextVector: its un-defaulted Config.Regularize.Lambda,
	// which is 0 under pqsda.NewEngine — every context entry weighs 1.
	contextLambda = 0.0
)

// The relevance gate of core's runSelection: the selector picks from the
// top max(poolFactor·k, minPool) queries by Eq. 15 score.
const (
	poolFactor = 3
	minPool    = 20
)

// stageTimes is sweep C's account of one request.
type stageTimes struct {
	compact, firstCandidate, cg, cgMulti, walker time.Duration
	selects, personalize, sweep                  time.Duration
	lanes                                        int
	compactSize, cgIterations, systemNNZ         int
	rounds, sweeps                               int
	first                                        []string // lane 0's diversified list
}

// pipeline is the stage sum a cache-missing Engine.Do runs for the
// request (one lane) — the ladder's rungs.
func (s stageTimes) pipeline() time.Duration {
	return s.compact + s.firstCandidate + s.walker + s.selects + s.personalize
}

func coreRequest(it item) core.SuggestRequest {
	req := core.SuggestRequest{User: it.user, Query: it.query, At: it.at, K: suggestK}
	if it.ctxQuery != "" {
		req.Context = []querylog.Entry{{UserID: it.user, Query: it.ctxQuery, Time: it.at.Add(-it.ctxAge)}}
	}
	return req
}

func coreRequests(items []item) []core.SuggestRequest {
	out := make([]core.SuggestRequest, len(items))
	for i, it := range items {
		out[i] = coreRequest(it)
	}
	return out
}

// engineCall runs one scripted suggest or batch through the engine's
// request API and reports whether the (first) result was a cache hit.
func engineCall(ctx context.Context, e *core.Engine, op *request) (hit bool, err error) {
	switch op.kind {
	case opSuggest:
		res, err := e.Do(ctx, coreRequest(op.items[0]))
		return res.CacheHit, err
	case opBatch:
		results, errs := e.DoBatch(ctx, coreRequests(op.items))
		for _, err := range errs {
			if err != nil {
				return false, err
			}
		}
		return results[0].CacheHit, nil
	}
	return false, nil
}

// replayStages takes one request apart: Rep().QueryID → BuildCompact →
// ContextVector + FirstCandidate(s)Ctx → WalkerFor → Select →
// Personalize, each a span under parent. A batch payload's lanes share
// the compact, the Eq. 15 system and the walker, and pay one blocked
// multi-RHS solve, as DoBatch does.
func replayStages(tr *tracer, parent, idx int, op *request, e *core.Engine, div diversify.Diversifier) (stageTimes, error) {
	ctx := context.Background()
	rep := e.Rep()
	lead := op.items[0]
	st := stageTimes{lanes: len(op.items)}

	qid, ok := rep.QueryID(lead.query)
	if !ok {
		return st, fmt.Errorf("query %q is not in the representation", lead.query)
	}
	seeds := []int{qid}
	if lead.ctxQuery != "" {
		cid, ok := rep.QueryID(lead.ctxQuery)
		if !ok {
			return st, fmt.Errorf("context query %q is not in the representation", lead.ctxQuery)
		}
		seeds = append(seeds, cid)
	}

	var compact *bipartite.Compact
	_, st.compact = tr.time("bipartite.compact", parent, idx, func() {
		compact = rep.BuildCompact(seeds, compactCfg)
	})
	st.compactSize = compact.Size()
	seedLocals := make([]int, 0, len(seeds))
	for _, s := range seeds {
		if local, in := compact.LocalOf[s]; in {
			seedLocals = append(seedLocals, local)
		}
	}
	if len(seedLocals) != len(seeds) {
		return st, fmt.Errorf("compact of %q dropped a seed", lead.query)
	}

	// A batch group finds its compact — and the Eq. 15 system memoized
	// on it — in the compact cache, so the system is built in a span of
	// its own there; a single cold request builds it inside its solve.
	if len(op.items) > 1 {
		tr.time("regularize.system", parent, idx, func() { regularize.System(compact, regularizeCfg) })
	}
	f0s := make([][]float64, len(op.items))
	seedSets := make([][]int, len(op.items))
	var regs []regularize.Result
	var err error
	_, st.firstCandidate = tr.time("regularize.first_candidate", parent, idx, func() {
		for i, it := range op.items {
			var rctx []regularize.ContextEntry
			if it.ctxQuery != "" {
				rctx = []regularize.ContextEntry{{Local: seedLocals[1], Before: it.ctxAge}}
			}
			f0s[i] = regularize.ContextVector(compact.Size(), seedLocals[0], rctx, contextLambda)
			seedSets[i] = seedLocals
		}
		if len(op.items) == 1 {
			var reg regularize.Result
			reg, err = regularize.FirstCandidateCtx(ctx, compact, f0s[0], seedLocals, regularizeCfg)
			regs = []regularize.Result{reg}
		} else {
			regs, err = regularize.FirstCandidatesCtx(ctx, compact, f0s, seedSets, regularizeCfg)
		}
	})
	if err != nil {
		return st, err
	}
	st.cgIterations = regs[0].Iterations

	// The solve alone, on the system FirstCandidate just memoized.
	system := regularize.System(compact, regularizeCfg)
	st.systemNNZ = system.NNZ()
	_, st.cg = tr.time("sparse.cg", parent, idx, func() {
		_, _, err = sparse.SolveCGCtx(ctx, system, f0s[0], nil, regularizeCfg.Solver)
	})
	if err != nil {
		return st, err
	}
	if len(op.items) > 1 {
		_, st.cgMulti = tr.time("sparse.cg_multi", parent, idx, func() {
			_, _, err = sparse.SolveCGMultiCtx(ctx, system, f0s, nil, regularizeCfg.Solver)
		})
		if err != nil {
			return st, err
		}
	}

	var walker *hittingtime.Walker
	_, st.walker = tr.time("hittingtime.new_walker", parent, idx, func() {
		walker = hittingtime.WalkerFor(compact, hittingCfg)
	})

	// Selections back to back, as DoBatch's solve group runs them.
	for i, it := range op.items {
		reg := regs[i]
		if reg.First < 0 {
			return st, fmt.Errorf("%q has no candidate", it.query)
		}
		ranked := reg.Rank(seedLocals)
		poolSize := min(max(poolFactor*suggestK, minPool), len(ranked))
		var selected []int
		_, d := tr.time("diversify.select", parent, idx, func() {
			selected, err = div.Select(ctx, diversify.Request{
				Compact: compact, Query: it.query, First: reg.First, K: suggestK,
				Excluded: seedLocals, Pool: ranked[:poolSize], Relevance: reg.F,
			})
		})
		if err != nil {
			return st, err
		}
		st.selects += d
		if i == 0 && len(selected) > 0 {
			st.rounds = len(selected) - 1
			for _, s := range selected {
				st.first = append(st.first, compact.QueryName(s))
			}
		}
	}

	// Personalization in place: the request is in e's suggestion cache
	// by now (sweep B put it there), so Engine.Do is a hit that only
	// personalizes, and the same call with SkipPersonalization is the
	// hit alone. Engine.Personalize is not used: it takes the string
	// path, several times dearer than the index-space re-rank Do runs.
	for _, it := range op.items {
		req := coreRequest(it)
		if _, err = e.Do(ctx, req); err != nil { // untimed: both timed calls find warm CPU caches
			return st, err
		}
		_, with := tr.time("core.do_hit", parent, idx, func() { _, err = e.Do(ctx, req) })
		if err != nil {
			return st, err
		}
		req.SkipPersonalization = true
		_, without := tr.time("core.do_hit_unpersonalized", parent, idx, func() { _, err = e.Do(ctx, req) })
		if err != nil {
			return st, err
		}
		st.personalize += with - without
	}

	// One truncated hitting-time computation, the kernel each greedy
	// round of Select runs.
	trans := walker.Transition()
	inS := make([]bool, trans.Rows())
	inS[regs[0].First] = true
	opts := randomwalk.HittingTimeOpts{
		Steps: 10, Tol: 1e-9,
		Dangling: randomwalk.DanglingMass(trans), Scratch: &randomwalk.SweepScratch{},
	}
	_, st.sweep = tr.time("randomwalk.sweep", parent, idx, func() {
		_, st.sweeps = randomwalk.TruncatedHittingTimeFlat(trans, inS, opts)
	})
	return st, nil
}

// engineSweep is what sweeps B and C measured, indexed by position in
// the replayed prefix of the timed script.
type engineSweep struct {
	do     []float64 // ms, the floor over the B sweeps; 0 where the op makes no engine request call
	stages []stageTimes
	// Per replayed request: the engine call minus the stages it ran,
	// and the full stage sum over the engine call.
	coreSelf, ladder []float64
}

// sweepEngine runs sweep B over ops `sweeps` times, each on an engine
// generation of its own warmed as the handler was, and keeps each
// request's floor — the counterpart of the handler floors it is
// subtracted from. The last sweep is interleaved with sweep C: up to
// `limit` distinct requests, taken at even intervals through ops, go
// through the stages at once after their engine call. BuildCompact bypasses the compact cache, so the
// stage replay pays the full carve whatever the engine call just
// cached. Only the last sweep's calls are spans.
func (r *runner) sweepEngine(tr *tracer, ops []*request, limit, sweeps int) (*engineSweep, error) {
	ctx := context.Background()
	div, err := diversify.New(diversify.Default, diversify.Options{Hitting: hittingCfg})
	if err != nil {
		return nil, err
	}
	sw := &engineSweep{do: make([]float64, len(ops))}
	stride := max(1, len(ops)/limit)
	seen := map[listKey]bool{}
	for k := 0; k < sweeps; k++ {
		last := k == sweeps-1
		eng := freshGeneration(r.engine0, r.maxGen)
		r.maxGen = eng.Generation()
		for _, op := range r.script.warmup {
			if _, err := engineCall(ctx, eng, op); err != nil {
				return nil, fmt.Errorf("engine warm-up: %w", err)
			}
		}
		for i, op := range ops {
			if op.kind != opSuggest && op.kind != opBatch {
				continue
			}
			var hit bool
			var doID int
			var d time.Duration
			call := func() { hit, err = engineCall(ctx, eng, op) }
			if last {
				// Span i+1 is request i's server.handle span of the traced pass.
				doID, d = tr.time("core.do", i+1, i, call)
			} else {
				t0 := time.Now()
				call()
				d = time.Since(t0)
			}
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			if k == 0 || ms(d) < sw.do[i] {
				sw.do[i] = ms(d)
			}
			key := listKey{query: op.items[0].query, ctx: op.items[0].ctxQuery}
			if !last || i%stride != 0 || len(sw.stages) == limit || seen[key] {
				continue
			}
			seen[key] = true
			st, err := replayStages(tr, doID, i, op, eng, div)
			if err != nil {
				return nil, fmt.Errorf("stage replay of op %d: %w", i, err)
			}
			sw.stages = append(sw.stages, st)
			// What the engine call ran, by what it reported: a cache hit
			// personalizes only; a batch group on a cached compact skips
			// the carve and the walker build and solves all lanes at once.
			ran := st.pipeline()
			switch {
			case hit:
				ran = st.personalize
			case op.kind == opBatch:
				ran = st.firstCandidate + st.selects + st.personalize
			}
			sw.coreSelf = append(sw.coreSelf, ms(d-ran))
			sw.ladder = append(sw.ladder, float64(st.pipeline())/float64(d))
		}
	}
	if len(sw.stages) == 0 {
		return nil, fmt.Errorf("no request to replay")
	}
	return sw, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// traced runs sweeps B and C and derives every per-layer metric.
// untraced[i] and traced[i] are a pair of passes that ran back to back;
// tr holds the last traced pass's spans. valid is false when the ladder
// does not add up or tracing slowed the handler.
func (r *runner) traced(tr *tracer, untraced, traced []passResult, setup setupStages) (m *metricSet, valid bool, err error) {
	valid = true
	last := traced[len(traced)-1]
	n := min(r.p.samples.ops, len(r.script.timed))
	ops := r.script.timed[:n]
	sample := append([]byte(nil), r.cap.body(0)...) // the last traced pass's first response
	sw, err := r.sweepEngine(tr, ops, r.p.samples.stages, len(traced))
	if err != nil {
		return nil, false, fmt.Errorf("traced run: %w", err)
	}
	m = newMetricSet(r.p.spec.PerLayer)

	// The ladder's verdict, on the one workload where the engine call
	// runs every rung: how far the replayed stage sum sits from the
	// engine call, request by request (the median ratio). A ladder that
	// does not add up is the defect the traced run exists to catch.
	gap := 0.0
	if r.p.workload == wlTailCold {
		ratio := median(sw.ladder)
		gap = math.Abs(ratio - 1)
		fmt.Fprintf(r.p.report, "ladder: the replayed stages sum to %.3f of core.do_ms\n", ratio)
		if gap > ladderTolerance {
			valid = false
			fmt.Fprintf(r.p.report, "FAILED: the ladder does not add up (tolerance %.0f%%)\n", 100*ladderTolerance)
		}
	}
	m.set("trace.ladder_gap", gap)

	// Tracing overhead: each request's floor over the traced passes
	// against its floor over the untraced ones, the median over requests.
	// The passes alternate, so both floors saw the same weather.
	tf, uf := floors(traced), floors(untraced)
	overhead := make([]float64, len(tf))
	for i := range tf {
		overhead[i] = tf[i] / uf[i]
	}
	ratio := median(overhead)
	m.set("trace.overhead_ratio", ratio)
	if ratio > maxOverheadRatio {
		valid = false
		fmt.Fprintf(r.p.report, "FAILED: tracing slowed the handler loop to %.3f of the untraced pass (limit %.2f)\n", ratio, maxOverheadRatio)
	}

	// The handler and the engine call, request by request, floor against
	// floor over as many replays of each.
	var done, serverSelf, refresh, logPost []float64
	for i, op := range r.script.timed {
		switch op.kind {
		case opSuggest, opBatch:
			if i < n {
				done = append(done, sw.do[i])
				serverSelf = append(serverSelf, tf[i]-sw.do[i])
			}
		case opRefresh:
			refresh = append(refresh, tf[i])
		case opLog:
			logPost = append(logPost, tf[i])
		}
	}
	m.set("server.handle_ms", median(tf[:n]))
	m.set("server.self_ms", median(serverSelf))
	m.set("server.refresh_ms", median(refresh))
	m.set("server.log_post_ms", median(logPost))
	m.set("core.do_ms", median(done))
	m.set("core.self_ms", median(sw.coreSelf))

	pick := func(f func(stageTimes) float64) float64 {
		v := make([]float64, len(sw.stages))
		for i, st := range sw.stages {
			v[i] = f(st)
		}
		return median(v)
	}
	m.set("bipartite.compact_ms", pick(func(s stageTimes) float64 { return ms(s.compact) }))
	m.set("bipartite.compact_size", pick(func(s stageTimes) float64 { return float64(s.compactSize) }))
	m.set("regularize.first_candidate_ms", pick(func(s stageTimes) float64 { return ms(s.firstCandidate) }))
	m.set("regularize.cg_iterations", pick(func(s stageTimes) float64 { return float64(s.cgIterations) }))
	m.set("sparse.cg_ms", pick(func(s stageTimes) float64 { return ms(s.cg) }))
	m.set("sparse.system_nnz", pick(func(s stageTimes) float64 { return float64(s.systemNNZ) }))
	m.set("sparse.cg_multi_ms_per_lane", pick(func(s stageTimes) float64 { return ms(s.cgMulti) / float64(s.lanes) }))
	m.set("hittingtime.new_walker_ms", pick(func(s stageTimes) float64 { return ms(s.walker) }))
	m.set("hittingtime.rounds", pick(func(s stageTimes) float64 { return float64(s.rounds) }))
	m.set("diversify.select_ms", pick(func(s stageTimes) float64 { return ms(s.selects) / float64(s.lanes) }))
	m.set("randomwalk.sweep_ms", pick(func(s stageTimes) float64 { return ms(s.sweep) }))
	m.set("randomwalk.sweeps", pick(func(s stageTimes) float64 { return float64(s.sweeps) }))
	m.set("profile.personalize_ms", pick(func(s stageTimes) float64 { return ms(s.personalize) / float64(s.lanes) }))

	batchPerItem := 0.0
	if r.p.workload == wlHotBatch {
		batchPerItem = median(done) / batchLanes
	}
	m.set("core.dobatch_ms_per_item", batchPerItem)

	// One refresh cycle's delta build, straight through the engine: the
	// last cycle's entries of what the last traced pass's server
	// recorded, on the engine that server started from.
	rebuild := 0.0
	if cycle := r.p.sizes.rwOps - 1; r.p.workload == wlReadWrite && len(last.recorded) >= cycle {
		fresh := last.recorded[len(last.recorded)-cycle:]
		var d []float64
		for i := 0; i < 3; i++ {
			_, took := tr.time("core.rebuild_delta", 0, -1, func() {
				_, err = last.engine.RebuildWith(fresh, core.RebuildGraphs, core.DeltaRebuild)
			})
			if err != nil {
				return nil, false, fmt.Errorf("traced run: delta rebuild: %w", err)
			}
			d = append(d, ms(took))
		}
		rebuild = median(d)
	}
	m.set("core.rebuild_delta_ms", rebuild)

	// Counts and ratios from the untraced passes.
	var total cacheDelta
	var allocs, allocKB, gcCycles, gcPause, gens, pooled []float64
	opsPerPass := float64(len(r.script.timed))
	for _, pr := range untraced {
		total = total.add(pr.cache)
		allocs = append(allocs, float64(pr.stats.mallocs)/opsPerPass)
		allocKB = append(allocKB, float64(pr.stats.allocB)/1024/opsPerPass)
		gcCycles = append(gcCycles, float64(pr.stats.gcCycles))
		gcPause = append(gcPause, ms(pr.stats.gcPause))
		gens = append(gens, float64(pr.gens))
		pooled = append(pooled, pr.lat...)
	}
	m.set("server.allocs_per_req", median(allocs))
	m.set("server.alloc_kb_per_req", median(allocKB))
	m.set("server.latency_p95_ms", percentile(pooled, 95))
	m.set("server.latency_p99_ms", percentile(pooled, 99))
	m.set("suggestcache.hit_ratio", total.hitRatio())
	m.set("suggestcache.evictions", float64(total.evictions))
	m.set("core.compact_cache_hit_ratio", total.compactHitRatio())
	m.set("snapshot.generations_per_pass", median(gens))
	m.set("snapshot.delta_entries", float64(untraced[len(untraced)-1].deltaEntries))
	m.set("process.gc_cycles_per_pass", numeric.Mean(gcCycles))
	m.set("process.gc_pause_ms_per_pass", numeric.Mean(gcPause))
	m.set("admission.shed_count", 0) // a pass that sheds fails the run before it gets here

	m.set("bipartite.build_s", setup.bipartiteBuild.Seconds())
	m.set("topicmodel.train_s", setup.train.Seconds())
	m.set("querylog.sessionize_s", setup.sessionize.Seconds())

	if err := probe(m, r.engine0, sample, ops[0].kind); err != nil {
		return nil, false, err
	}

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.set("process.heap_live_mb", float64(mem.HeapAlloc)/(1<<20))

	if r.p.traceOut != "" {
		if err := tr.write(r.p.traceOut); err != nil {
			return nil, false, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(r.p.report, "%d spans written to %s\n", len(tr.spans), r.p.traceOut)
	}
	return m, valid, nil
}
