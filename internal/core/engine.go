// Package core wires the three PQS-DA components — the multi-bipartite
// query-log representation, the two-phase diversification and the
// UPM-based personalization — into one query-suggestion engine (the
// paper's Fig. 1 architecture).
//
// The engine is a coordinator around an immutable serving snapshot
// (internal/snapshot): requests load the snapshot once and run entirely
// on it, while mutation (Ingest/Refresh/LearnUser) derives the NEXT
// snapshot and swaps it in atomically. The raw log lives in an
// append-only list of sealed segments, which is what lets Refresh build
// incrementally: entries past the snapshot's segment coverage are the
// delta.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bipartite"
	"repro/internal/diversify"
	"repro/internal/hittingtime"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/querylog"
	"repro/internal/regularize"
	"repro/internal/snapshot"
	"repro/internal/suggestcache"
	"repro/internal/topicmodel"
)

// Config assembles the tunables of every stage. Zero values select the
// defaults of the respective packages.
type Config struct {
	// Weighting selects raw or cf·iqf edge weights (default CFIQF — the
	// configuration the paper adopts after Fig. 3's comparison).
	Weighting bipartite.Weighting
	// Sessionizer controls session segmentation.
	Sessionizer querylog.SessionizerConfig
	// Compact controls the compact-representation budget ℚ.
	Compact bipartite.CompactConfig
	// Regularize controls Eq. 15.
	Regularize regularize.Config
	// Hitting controls the cross-bipartite hitting time.
	Hitting hittingtime.Config
	// Diversify selects the default diversification strategy and tunes
	// the non-default selectors (see internal/diversify). The zero
	// value serves the paper's hitting-time selector.
	Diversify diversify.Config
	// UPM controls offline user profiling. Ignored when
	// SkipPersonalization is set.
	UPM topicmodel.UPMConfig
	// ScoreMode selects the Eq. 31 variant (default Posterior).
	ScoreMode profile.ScoreMode
	// SkipPersonalization builds a diversification-only engine (the
	// intermediate system evaluated in Section VI-B).
	SkipPersonalization bool
	// PoolFactor scales the relevance gate: diversification may only
	// pick from the top PoolFactor·k queries by regularization score
	// (default 3). Larger values favor diversity, smaller ones
	// relevance.
	PoolFactor int
	// Strategy selects how Refresh rebuilds the representation: a full
	// rebuild over the whole log (default) or an incremental delta
	// build over the entries ingested since the last build. The two
	// produce bit-identical representations; delta is much faster for
	// small deltas.
	Strategy RefreshStrategy
	// CompactCache bounds the engine's LRU of built compact
	// representations, keyed by (generation, seed IDs). Compacts are
	// pure functions of the snapshot and seed set, so reuse is
	// bit-identical; a hit skips the representation carving AND every
	// memoized derivation on it (normalized affinities, the Eq. 15
	// system, the walker transition) — the bulk of an uncached
	// request. 0 selects the default (128 entries); negative disables
	// the cache.
	CompactCache int
}

// Engine is a ready-to-serve PQS-DA instance.
type Engine struct {
	cfg Config

	// snap is the immutable serving snapshot. The lock-free serving
	// path loads it exactly once per request; mutators build the next
	// snapshot off to the side and Store it.
	snap atomic.Pointer[snapshot.Snapshot]
	// segs is the append-only sealed-segment log. The snapshot records
	// how many segments it covers; everything after that boundary is
	// the pending delta for the next Refresh.
	segs *querylog.SegmentList
	// hasLog is false for engines deserialized from disk — they carry
	// no raw entries, so Refresh is unsupported.
	hasLog bool
	// loaded describes the wire image a deserialized engine came from
	// (zero for engines built from a log); see LoadedImage.
	loaded loadedInfo

	// wireImg caches the snapwire encoding of the current snapshot,
	// keyed by snapshot pointer (see WireImage).
	wireImg atomic.Pointer[wireImage]

	// cache, when attached (EnableCache), memoizes diversified lists
	// keyed by (generation, query, context fingerprint, k). Shared by
	// clones — generation keying handles invalidation across swaps.
	cache *suggestcache.Cache[Result]
	// compacts is the generation-keyed LRU of built compact
	// representations (see compactcache.go). Always attached unless
	// Config.CompactCache is negative; shared by clones like the
	// suggestion cache.
	compacts *compactCache
	// cgSolves counts Eq. 15 CG solves run by this instance (cache
	// effectiveness ground truth; see SolveCount).
	cgSolves atomic.Int64

	// strategies is the servable diversification-strategy table: one
	// instance per registered strategy (plus AddDiversifier extras),
	// built once at construction and read-only while serving. Shared
	// by clones.
	strategies map[string]diversify.Diversifier
	// defaultStrategy is the canonical name requests with an empty
	// Strategy resolve to.
	defaultStrategy string

	// dirty counts entries ingested since the last build/Refresh. The
	// sealed segments are the source of truth; Refresh clamps a
	// drifted counter back to them and counts the event (DirtyClamps)
	// instead of silently mis-sizing the fold-in window.
	dirty int
	// dirtyClamps counts dirty-counter drift corrections.
	dirtyClamps atomic.Int64
}

// Result is one suggestion run with its intermediate products and
// timing breakdown (the latter feeds the paper's Fig. 7).
type Result struct {
	// Suggestions is the final ranked list (personalized when the
	// engine has profiles).
	Suggestions []string
	// Diversified is the diversification-stage ranking (Algorithm 1
	// output) before personalization.
	Diversified []string
	// DiversifiedIDs are the snapshot symbol-table ids of Diversified
	// (parallel slice; nil when the snapshot carries no symbol table).
	// Cached alongside the list, so personalization — on fresh runs and
	// cache hits alike — re-ranks in index space with the snapshot's
	// precomputed tokens instead of re-tokenizing every candidate.
	DiversifiedIDs []uint32
	// CompactSize is the number of queries in the compact
	// representation used.
	CompactSize int
	// SolveIterations is the CG iteration count of the Eq. 15 solve.
	SolveIterations int
	// SolveResidual is the final relative residual of the Eq. 15 solve
	// (zero on cache hits — this request ran no solve).
	SolveResidual float64
	// SolveBatchSize is how many right-hand sides the Eq. 15 solve that
	// produced this list was blocked with: 1 on the single-request path,
	// the solve-group size under DoBatch, 0 on cache hits.
	SolveBatchSize int
	// HittingRounds is the number of Algorithm-1 greedy rounds run
	// (zero on cache hits).
	HittingRounds int
	// CompactTime, SolveTime, HittingTime and PersonalizeTime are the
	// stage durations. On a cache hit the first three are zero — this
	// request did not run those stages.
	CompactTime, SolveTime, HittingTime, PersonalizeTime time.Duration
	// Generation is the engine snapshot that produced this result.
	Generation uint64
	// Strategy is the canonical name of the diversification strategy
	// that produced (or would address the cache entry of) Diversified.
	Strategy string
	// CacheHit reports that the diversified list came from the
	// suggestion cache (directly or by coalescing onto a concurrent
	// identical request) instead of a fresh pipeline run.
	CacheHit bool
}

// ErrUnknownQuery is returned when the input query has no node in the
// representation and shares no term with any known query — and also for
// a logged query with no neighbour in any view (alone in its session,
// no clicked URL and no term that another query shares): the carve
// around it is a singleton, there is nothing to suggest, and such a
// query is unservable by contract rather than by accident.
var ErrUnknownQuery = errors.New("core: query unknown to the log representation")

// NewEngine builds the representation from the log and, unless
// personalization is skipped, trains the UPM for user profiles. The log
// should already be cleaned (querylog.Clean); it is sorted in place as
// a side effect of sessionization.
func NewEngine(l *querylog.Log, cfg Config) (*Engine, error) {
	if l.Len() == 0 {
		return nil, querylog.ErrEmptyLog
	}
	sessions := querylog.Sessionize(l, cfg.Sessionizer)
	e := &Engine{cfg: cfg, segs: &querylog.SegmentList{}, hasLog: true, compacts: newCompactCache(cfg.CompactCache)}
	if err := e.initStrategies(); err != nil {
		return nil, err
	}
	e.segs.Append(l.Entries)
	snap := e.builder().FromSessions(sessions, l.Len(), e.segs.NumSegments())
	snap.Generation = 1
	if !cfg.SkipPersonalization {
		snap.Corpus = topicmodel.BuildCorpus(sessions, nil)
		upm := topicmodel.TrainUPM(snap.Corpus, cfg.UPM)
		snap.Profiles = profile.NewStore(upm, snap.Corpus)
	}
	e.snap.Store(snap)
	return e, nil
}

// builder returns the snapshot builder configured for this engine.
func (e *Engine) builder() snapshot.Builder {
	return snapshot.Builder{Sessionizer: e.cfg.Sessionizer, Weighting: e.cfg.Weighting}
}

// Snapshot returns the current immutable serving snapshot. Holders see
// a consistent — possibly slightly stale after a swap — state; the
// snapshot's contents never change.
func (e *Engine) Snapshot() *snapshot.Snapshot { return e.snap.Load() }

// Rep returns the current snapshot's multi-bipartite representation.
func (e *Engine) Rep() *bipartite.Representation { return e.snap.Load().Rep }

// Sessions returns the current snapshot's canonical session list
// (read-only).
func (e *Engine) Sessions() []querylog.Session { return e.snap.Load().Sessions }

// Corpus returns the current snapshot's training corpus (nil when
// personalization is skipped or the engine was loaded from disk
// without one).
func (e *Engine) Corpus() *topicmodel.Corpus { return e.snap.Load().Corpus }

// Profiles returns the current snapshot's profile store, nil when
// personalization is skipped.
func (e *Engine) Profiles() *profile.Store { return e.snap.Load().Profiles }

// Log returns a fresh copy of the full append-only log (built + pending
// entries). It is a flatten of the sealed segments: O(n), intended for
// tooling and tests, not the serving path.
func (e *Engine) Log() *querylog.Log { return e.segs.Flatten() }

// LastBuild reports how the current snapshot was built (mode, delta
// size, duration) — the server surfaces this on /v1/stats and in the
// refresh response.
func (e *Engine) LastBuild() snapshot.Stats { return e.snap.Load().Stats }

// Strategy returns the configured default refresh build strategy.
func (e *Engine) Strategy() RefreshStrategy { return e.cfg.Strategy }

// suggestDiversifiedOn is the pipeline body, pinned to one snapshot so
// a request never mixes state across a concurrent hot-swap. div is the
// resolved diversification strategy (selection stage); name its
// canonical registry name.
func (e *Engine) suggestDiversifiedOn(ctx context.Context, snap *snapshot.Snapshot, div diversify.Diversifier, name string, query string, sctx []querylog.Entry, at time.Time, k int) (Result, error) {
	res := Result{Strategy: name}
	if k <= 0 {
		return res, fmt.Errorf("core: k = %d", k)
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	seeds, seedTimes, nInput := resolveSeeds(snap.Rep, query, sctx, at)
	if nInput == 0 {
		return res, ErrUnknownQuery
	}

	t0 := time.Now()
	sp := obs.StartSpan(ctx, "compact")
	compact, compactCached := e.compactFor(snap, seeds)
	res.CompactTime = time.Since(t0)
	res.CompactSize = compact.Size()
	sp.SetAttr("seeds", len(seeds))
	sp.SetAttr("inputSeeds", nInput)
	sp.SetAttr("size", compact.Size())
	sp.SetAttr("cached", compactCached)
	sp.End()
	if compact.Size() < 2 {
		return res, ErrUnknownQuery
	}

	seedLocals, f0, ok := seedVector(compact, seeds, seedTimes, nInput, e.cfg.Regularize.Lambda)
	if !ok {
		return res, ErrUnknownQuery
	}

	t0 = time.Now()
	sp = obs.StartSpan(ctx, "solve")
	e.cgSolves.Add(1)
	reg, err := regularize.FirstCandidateCtx(ctx, compact, f0, seedLocals, e.cfg.Regularize)
	res.SolveTime = time.Since(t0)
	res.SolveIterations = reg.Iterations
	res.SolveResidual = reg.Residual
	res.SolveBatchSize = 1
	sp.SetAttr("cgIterations", reg.Iterations)
	sp.SetAttr("residual", reg.Residual)
	sp.End()
	if err != nil {
		return res, err
	}
	if reg.First < 0 {
		return res, ErrUnknownQuery
	}
	var herr error
	lane := [1]selectionLane{{div: div, name: name, query: query, k: k, reg: reg, res: &res, err: &herr}}
	e.runSelection(ctx, snap, compact, seedLocals, lane[:])
	return res, herr
}

// seedVector maps the resolved seeds onto a built compact and assembles
// the Eq. 7 context vector F⁰. Seed locals are the input-derived seeds
// first, then the search context. Term-fallback seeds stand in for the
// input query itself, so they must NOT enter F⁰ with a decay weight —
// only true context entries (i ≥ nInput) do; additional fallback seeds
// share the anchor weight 1 (alternates for the input, not context).
//
// ok is false when no input-derived seed landed in the compact (every
// seed may miss it under a degenerate budget) — without an anchor F⁰
// the query is unservable.
func seedVector(compact *bipartite.Compact, seeds []int, seedTimes []time.Duration, nInput int, lambda float64) (seedLocals []int, f0 []float64, ok bool) {
	seedLocals = make([]int, 0, len(seeds))
	var rctx []regularize.ContextEntry
	inputSeeds := 0
	for i := range seeds {
		local, in := compact.LocalOf[seeds[i]]
		if !in {
			continue
		}
		seedLocals = append(seedLocals, local)
		if i < nInput {
			inputSeeds++
		} else {
			rctx = append(rctx, regularize.ContextEntry{Local: local, Before: seedTimes[i]})
		}
	}
	if len(seedLocals) == 0 || inputSeeds == 0 {
		return nil, nil, false
	}
	f0 = regularize.ContextVector(compact.Size(), seedLocals[0], rctx, lambda)
	for i := 1; i < inputSeeds; i++ {
		f0[seedLocals[i]] = 1
	}
	return seedLocals, f0, true
}

// selectionLane is one request's part in runSelection: what the
// selection stage needs of it, and where its answer goes.
type selectionLane struct {
	div   diversify.Diversifier // resolved strategy
	name  string                // its canonical registry name
	query string
	k     int
	reg   regularize.Result
	res   *Result // selection fields are filled in
	err   *error  // receives the strategy's error, if any
}

// runSelection is the pipeline tail shared by the single-request path
// (one lane) and DoBatch (the lanes of one solve group, all on compact
// with the seed locals seedLocals): the relevance gate over each lane's
// solved F*, one diversify.SelectAll per strategy among the lanes, and
// the naming of the selected compact locals (strings + symbol ids). It
// may reorder lanes. Every lane's HittingTime is the wall time of the
// whole stage — what that lane's result waited on.
func (e *Engine) runSelection(ctx context.Context, snap *snapshot.Snapshot, compact *bipartite.Compact, seedLocals []int, lanes []selectionLane) {
	if len(lanes) == 0 {
		return
	}
	// Lanes of one strategy become adjacent, so each strategy sees all
	// of its lanes in one call.
	slices.SortStableFunc(lanes, func(a, b selectionLane) int { return strings.Compare(a.name, b.name) })

	// Relevance gate: diversification picks only from the queries the
	// regularization stage scored highest, so coverage of other facets
	// never costs unrelated suggestions.
	pf := e.cfg.PoolFactor
	if pf <= 0 {
		pf = 3
	}
	topicsOf, topicWeights := topicsOn(snap, compact)
	reqs := make([]diversify.Request, len(lanes))
	maxPool := 0
	for i, ln := range lanes {
		poolSize := max(pf*ln.k, 20)
		ranked := ln.reg.Rank(seedLocals)
		if poolSize > len(ranked) {
			poolSize = len(ranked)
		}
		maxPool = max(maxPool, poolSize)
		reqs[i] = diversify.Request{
			Compact:      compact,
			Query:        ln.query,
			First:        ln.reg.First,
			K:            ln.k,
			Excluded:     seedLocals,
			Pool:         ranked[:poolSize],
			Relevance:    ln.reg.F,
			TopicsOf:     topicsOf,
			TopicWeights: topicWeights,
		}
	}

	// Selection stage: the strategy picks k diverse suggestions from
	// the relevance-gated pool. The stage keeps its historical span and
	// histogram name ("hitting" — the paper's selector) for dashboard
	// continuity; the strategy attr and the per-strategy server metrics
	// tell the selectors apart.
	sp := obs.StartSpan(ctx, "hitting")
	sp.SetAttr("strategy", lanes[0].name)
	var elapsed time.Duration
	maxRounds, total := 0, 0
	for from := 0; from < len(lanes); {
		to := from + 1
		for to < len(lanes) && lanes[to].name == lanes[from].name {
			to++
		}
		t0 := time.Now()
		selected, errs := diversify.SelectAll(ctx, lanes[from].div, reqs[from:to])
		elapsed += time.Since(t0)
		for i, sel := range selected {
			ln := lanes[from+i]
			*ln.err = errs[i]
			nameSelection(snap, compact, sel, ln.res)
			maxRounds = max(maxRounds, ln.res.HittingRounds)
			total += len(sel)
		}
		from = to
	}
	for _, ln := range lanes {
		ln.res.HittingTime = elapsed
	}
	sp.SetAttr("lanes", len(lanes))
	sp.SetAttr("rounds", maxRounds)
	sp.SetAttr("selected", total)
	sp.SetAttr("poolSize", maxPool)
	sp.End()
}

// nameSelection fills res with a selection of compact locals: the
// round count, the query strings and their symbol ids.
func nameSelection(snap *snapshot.Snapshot, compact *bipartite.Compact, selected []int, res *Result) {
	if n := len(selected); n > 0 {
		res.HittingRounds = n - 1
	}
	res.Diversified = make([]string, len(selected))
	for i, s := range selected {
		res.Diversified[i] = compact.QueryName(s)
	}
	if snap.Symbols != nil {
		res.DiversifiedIDs = make([]uint32, len(selected))
		for i, s := range selected {
			res.DiversifiedIDs[i] = uint32(compact.QueryIDs[s])
		}
	}
	res.Suggestions = res.Diversified
}

// LearnUser folds a (new or returning) user's search history into the
// trained profiles WITHOUT retraining the UPM: the user's sessions are
// Gibbs-sampled against the learned global topics (see
// topicmodel.UPM.FoldIn). The fold-in runs on a clone of the UPM and is
// published as a new snapshot (same generation — learning does not
// invalidate the suggestion cache, which stores user-independent
// lists), so concurrent Do calls never observe a half-updated
// model. It returns an error when the engine has no profiles.
func (e *Engine) LearnUser(userID string, entries []querylog.Entry) error {
	prev := e.snap.Load()
	if prev.Profiles == nil {
		return errors.New("core: engine built without personalization")
	}
	if len(entries) == 0 {
		return errors.New("core: no entries to learn from")
	}
	l := &querylog.Log{}
	for _, en := range entries {
		en.UserID = userID
		l.Append(en)
	}
	sessions := querylog.Sessionize(l, e.cfg.Sessionizer)
	model := topicmodel.SessionsForFoldIn(prev.Corpus, sessions, nil)
	upm := prev.Profiles.UPM().Clone()
	upm.FoldIn(userID, model, 0, e.cfg.UPM.Seed)
	next := *prev
	next.Profiles = profile.NewStore(upm, prev.Corpus)
	e.snap.Store(&next)
	return nil
}

// Personalize re-ranks an existing candidate list for a user: Borda
// aggregation of the original (relevance/diversity) order with the
// preference order (Section V-B). Without profiles or for unknown
// users it returns the input order.
func (e *Engine) Personalize(userID string, candidates []string) []string {
	return personalizeOn(e.snap.Load(), e.cfg.ScoreMode, userID, candidates)
}

func personalizeOn(snap *snapshot.Snapshot, mode profile.ScoreMode, userID string, candidates []string) []string {
	if snap.Profiles == nil || snap.Profiles.Theta(userID) == nil {
		return candidates
	}
	prefRank := snap.Profiles.RankByPreference(userID, candidates, mode)
	return profile.BordaAggregate(candidates, prefRank)
}

// personalizeResultOn is personalizeOn for a pipeline Result: when the
// result carries symbol ids (fresh runs and cache hits alike), the
// preference ranking and Borda merge run in index space against the
// snapshot's precomputed token lists — no per-candidate tokenization and
// no string-keyed maps. Results without ids (hand-assembled snapshots)
// take the string path.
func personalizeResultOn(snap *snapshot.Snapshot, mode profile.ScoreMode, userID string, res *Result) []string {
	if snap.Symbols == nil || len(res.DiversifiedIDs) != len(res.Diversified) || len(res.Diversified) == 0 {
		return personalizeOn(snap, mode, userID, res.Diversified)
	}
	if snap.Profiles == nil || snap.Profiles.Theta(userID) == nil {
		return res.Diversified
	}
	toks := make([][]string, len(res.DiversifiedIDs))
	for i, id := range res.DiversifiedIDs {
		toks[i] = snap.Symbols.Tokens(id)
	}
	perm := snap.Profiles.PreferencePerm(userID, toks, mode)
	merged := profile.BordaMergePerm(perm)
	out := make([]string, len(merged))
	for i, j := range merged {
		out[i] = res.Diversified[j]
	}
	return out
}

// resolveSeeds maps the input query and its context to representation
// query IDs plus each context entry's elapsed time before the input.
// Unknown input queries fall back to term-sharing queries so cold
// queries still get served. nInput reports how many leading seeds are
// derived from the input query itself (1 for a known query, up to 3
// term-fallback stand-ins otherwise) — the rest are search context.
func resolveSeeds(rep *bipartite.Representation, query string, sctx []querylog.Entry, at time.Time) (seeds []int, times []time.Duration, nInput int) {
	if id, ok := rep.QueryID(query); ok {
		seeds = append(seeds, id)
		times = append(times, 0)
	} else {
		for _, id := range termFallbackSeeds(rep, query, 3) {
			seeds = append(seeds, id)
			times = append(times, 0)
		}
	}
	nInput = len(seeds)
	for _, c := range sctx {
		if id, ok := rep.QueryID(c.Query); ok {
			seeds = append(seeds, id)
			times = append(times, elapsedSince(c.Time, at))
		}
	}
	return seeds, times, nInput
}

// elapsedSince is how long before at a context query was submitted; a
// context entry stamped after the input query counts as simultaneous.
func elapsedSince(t, at time.Time) time.Duration {
	return max(at.Sub(t), 0)
}

// termFallbackSeeds finds up to n known queries sharing terms with an
// unknown input query, preferring those sharing more weight. The
// term→query adjacency is memoized on the representation, so cold
// queries cost one sparse-row scan per token instead of a full
// transpose per request.
func termFallbackSeeds(rep *bipartite.Representation, query string, n int) []int {
	scores := make(map[int]float64)
	wT := rep.WTransposed(bipartite.ViewTerm)
	for _, tok := range querylog.Tokenize(query) {
		t, ok := rep.Objects[bipartite.ViewTerm].Lookup(tok)
		if !ok {
			continue
		}
		wT.Row(t, func(q int, v float64) {
			scores[q] += v
		})
	}
	type cand struct {
		q int
		s float64
	}
	cands := make([]cand, 0, len(scores))
	for q, s := range scores {
		cands = append(cands, cand{q, s})
	}
	// Highest shared weight first; ties break toward the smaller query
	// id so the order is deterministic.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].s != cands[j].s {
			return cands[i].s > cands[j].s
		}
		return cands[i].q < cands[j].q
	})
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = cands[i].q
	}
	return out
}
