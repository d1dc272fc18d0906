package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/diversify"
	"repro/internal/obs"
	"repro/internal/querylog"
	"repro/internal/regularize"
	"repro/internal/snapshot"
	"repro/internal/suggestcache"
)

// DoBatch runs the suggestion pipeline for a batch of requests against
// ONE snapshot load, returning parallel result and error slices (a nil
// error slot means that item succeeded).
//
// The point of batching is solve sharing: cache misses whose requests
// resolve to the same seed set — same normalized query, same context
// queries — build one compact representation and run ONE blocked
// multi-RHS CG solve (sparse.SolveCGMulti) for all their Eq. 15 systems
// instead of one solve each, and a 64-item batch typically collapses to
// a handful of blocked solves. Within the batch, items with identical
// cache keys coalesce onto a single pipeline run even before the solve
// (NoCache items opt out of sharing, as on the single path).
//
// Per-item semantics match Do exactly: cache hits serve the stored list
// with zeroed stage timings, CachedOnly misses return ErrNotCached
// without computing, personalization runs per item on top of the shared
// diversified lists. Shared-stage timings (compact, solve, and hitting:
// a group's lanes run Algorithm 1 together) are reported on every item
// of a solve group — they are wall times of stages the item's result
// waited on, not exclusive per-item cost.
func (e *Engine) DoBatch(ctx context.Context, reqs []SuggestRequest) ([]Result, []error) {
	results := make([]Result, len(reqs))
	errs := make([]error, len(reqs))
	if len(reqs) == 0 {
		return results, errs
	}
	now := time.Now()

	// One snapshot load for the whole batch: every item's cache keying,
	// solve and personalization read this value, so a concurrent
	// hot-swap can never split a batch across generations.
	snap := e.snap.Load()

	states := make([]batchItemState, len(reqs))

	// Phase 1 — validate, resolve strategies, consult the cache, and
	// coalesce batch-local duplicates.
	keyLeader := make(map[suggestcache.Key]int, len(reqs))
	for i, req := range reqs {
		st := &states[i]
		st.leader = i
		if req.K <= 0 {
			errs[i] = fmt.Errorf("core: k = %d", req.K)
			st.done = true
			continue
		}
		st.at = req.At
		if st.at.IsZero() {
			st.at = now
		}
		strategy, div, serr := e.resolveStrategy(req.Strategy)
		st.strategy, st.div = strategy, div
		if serr != nil {
			results[i] = Result{Generation: snap.Generation, Strategy: strategy}
			errs[i] = serr
			st.done = true
			continue
		}
		if e.cache != nil && !req.NoCache {
			st.key = e.cacheKey(snap, strategy, req, st.at)
			st.keyed = true
			if res, ok := e.cache.Get(st.key); ok {
				res.CompactTime, res.SolveTime, res.HittingTime = 0, 0, 0
				res.SolveBatchSize = 0
				res.CacheHit = true
				results[i] = res
				st.done = true
				continue
			}
		}
		if req.CachedOnly {
			results[i] = Result{Generation: snap.Generation, Strategy: strategy}
			errs[i] = ErrNotCached
			st.done = true
			continue
		}
		if st.keyed {
			if l, dup := keyLeader[st.key]; dup {
				st.leader = l // follower: copies the leader's list post-compute
				continue
			}
			keyLeader[st.key] = i
		}
	}

	// Phase 2 — group the computing leaders by solve signature. Two
	// requests share a signature when they resolve to the same seed set
	// (same normalized input query, same context query names): they
	// build the same compact representation and the same Eq. 15 system
	// matrix, differing only in the right-hand side F⁰ (context decay
	// times) — exactly the shape the multi-RHS kernel blocks.
	groups := make(map[string][]int)
	var order []string
	for i := range reqs {
		st := &states[i]
		if st.done || st.leader != i {
			continue
		}
		sig := SolveSignature(reqs[i])
		if _, seen := groups[sig]; !seen {
			order = append(order, sig)
		}
		groups[sig] = append(groups[sig], i)
	}

	for _, sig := range order {
		e.solveGroup(ctx, snap, reqs, states, groups[sig], results, errs)
	}

	// Phase 3 — fan batch-local duplicates out from their leaders and
	// personalize every successful item.
	for i, req := range reqs {
		st := &states[i]
		if !st.done && st.leader != i {
			l := st.leader
			if errs[l] != nil {
				results[i] = Result{Generation: snap.Generation, Strategy: st.strategy}
				errs[i] = errs[l]
				continue
			}
			res := results[l]
			// Same contract as a cache hit: the stage work belongs to
			// the leader; this item shared its result.
			res.CompactTime, res.SolveTime, res.HittingTime = 0, 0, 0
			res.SolveBatchSize = 0
			res.CacheHit = true
			results[i] = res
		}
		if errs[i] != nil {
			continue
		}
		res := &results[i]
		if !req.SkipPersonalization && snap.Profiles != nil {
			t0 := time.Now()
			res.Suggestions = personalizeResultOn(snap, e.cfg.ScoreMode, req.User, res)
			res.PersonalizeTime = time.Since(t0)
		} else {
			res.Suggestions = res.Diversified
			res.PersonalizeTime = 0
		}
	}
	return results, errs
}

// batchItemState is DoBatch's per-item bookkeeping.
type batchItemState struct {
	at       time.Time
	strategy string
	div      diversify.Diversifier // strategy, resolved
	key      suggestcache.Key
	keyed    bool // key computed (cache attached, not NoCache)
	done     bool // result or error finalized pre-solve
	leader   int  // batch-local coalescing: index of identical keyed item, else own index
}

// solveGroup runs one solve group end to end: one compact build, one
// blocked multi-RHS Eq. 15 solve for every member's F⁰, one selection
// stage over all of them, then cache insertion per item.
func (e *Engine) solveGroup(ctx context.Context, snap *snapshot.Snapshot, reqs []SuggestRequest, states []batchItemState, members []int, results []Result, errs []error) {
	fail := func(err error) {
		for _, i := range members {
			results[i] = Result{Generation: snap.Generation, Strategy: states[i].strategy}
			errs[i] = err
		}
	}

	// All members share a seed set by construction: resolve it once,
	// from the first member, remembering which context entry each
	// context seed came from. Only the entries' ages differ per member.
	lead := reqs[members[0]]
	seeds, _, nInput := resolveSeeds(snap.Rep, lead.Query, nil, time.Time{})
	if nInput == 0 {
		fail(ErrUnknownQuery)
		return
	}
	ctxOf := make([]int, nInput, nInput+len(lead.Context))
	for j, c := range lead.Context {
		if id, ok := snap.Rep.QueryID(c.Query); ok {
			seeds = append(seeds, id)
			ctxOf = append(ctxOf, j)
		}
	}

	t0 := time.Now()
	sp := obs.StartSpan(ctx, "compact")
	compact, compactCached := e.compactFor(snap, seeds)
	compactTime := time.Since(t0)
	sp.SetAttr("seeds", len(seeds))
	sp.SetAttr("inputSeeds", nInput)
	sp.SetAttr("size", compact.Size())
	sp.SetAttr("batch", len(members))
	sp.SetAttr("cached", compactCached)
	sp.End()
	if compact.Size() < 2 {
		fail(ErrUnknownQuery)
		return
	}

	// Per-member F⁰: same anchor, per-item context decay times.
	f0s := make([][]float64, len(members))
	seedSets := make([][]int, len(members))
	var seedLocals []int
	times := make([]time.Duration, len(seeds)) // input-derived seeds: 0
	for mi, i := range members {
		for s := nInput; s < len(seeds); s++ {
			times[s] = elapsedSince(reqs[i].Context[ctxOf[s]].Time, states[i].at)
		}
		locals, f0, ok := seedVector(compact, seeds, times, nInput, e.cfg.Regularize.Lambda)
		if !ok {
			fail(ErrUnknownQuery)
			return
		}
		seedLocals = locals
		f0s[mi] = f0
		seedSets[mi] = locals
	}

	t0 = time.Now()
	sp = obs.StartSpan(ctx, "solve")
	sp.SetAttr("rhs", len(members))
	e.cgSolves.Add(1)
	regs, serr := regularize.FirstCandidatesCtx(ctx, compact, f0s, seedSets, e.cfg.Regularize)
	solveTime := time.Since(t0)
	sp.SetAttr("err", serr != nil)
	sp.End()
	if regs == nil {
		fail(serr)
		return
	}

	lanes := make([]selectionLane, 0, len(members))
	for mi, i := range members {
		reg := regs[mi]
		results[i] = Result{
			Generation:      snap.Generation,
			Strategy:        states[i].strategy,
			CompactSize:     compact.Size(),
			CompactTime:     compactTime,
			SolveTime:       solveTime,
			SolveIterations: reg.Iterations,
			SolveResidual:   reg.Residual,
			SolveBatchSize:  len(members),
		}
		if reg.First < 0 {
			if serr != nil {
				errs[i] = serr
			} else {
				errs[i] = ErrUnknownQuery
			}
			continue
		}
		lanes = append(lanes, selectionLane{
			div: states[i].div, name: states[i].strategy, query: reqs[i].Query, k: reqs[i].K,
			reg: reg, res: &results[i], err: &errs[i],
		})
	}
	e.runSelection(ctx, snap, compact, seedLocals, lanes)
	for _, i := range members {
		if errs[i] == nil && states[i].keyed {
			e.cache.Put(states[i].key, results[i])
		}
	}
}

// SolveSignature canonicalizes the part of a request that determines
// its seed set — and therefore its compact representation and Eq. 15
// system matrix. Requests with equal signatures are solved in one
// multi-RHS block by DoBatch; the server's batch endpoint uses the
// same signature to budget admission (one gate slot per solve group).
// The separator cannot occur in normalized queries.
func SolveSignature(req SuggestRequest) string {
	var b strings.Builder
	b.WriteString(querylog.NormalizeQuery(req.Query))
	for _, c := range req.Context {
		b.WriteByte('\x1e')
		b.WriteString(querylog.NormalizeQuery(c.Query))
	}
	return b.String()
}
