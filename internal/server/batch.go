package server

// POST /v1/suggest/batch — the batched suggestion endpoint.
//
// The endpoint exists to exploit solve sharing. Items whose requests
// resolve to the same seed set (same normalized query, same context
// query names — core.SolveSignature) build the same compact
// representation and the same Eq. 15 system matrix, so Engine.DoBatch
// answers all of them with ONE blocked multi-RHS CG solve instead of
// one solve each. The handler therefore groups the payload by solve
// signature up front and budgets admission per GROUP: one suggest-gate
// slot covers a whole group, acquired before any solve work starts, so
// duplicate and same-signature items cost one concurrency unit instead
// of racing each other for slots they would spend computing the same
// thing. Within a group, items still run through suggestRun
// individually — per-user rate limits, wide events, SLO recording and
// error envelopes are exactly the single-request semantics; only the
// engine stage is swapped for a lane of the shared DoBatch call.
//
// SetBatchSolve(false) restores the legacy model (independent items,
// one gate slot each, solve sharing only via the suggestion cache) as
// an operational escape hatch.

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
)

// MaxBatchSize bounds one /v1/suggest/batch payload.
const MaxBatchSize = 256

// BatchSuggestRequest is the POST /v1/suggest/batch body.
type BatchSuggestRequest struct {
	Requests []SuggestRequest `json:"requests"`
}

// BatchItemResult is one element of the batch response, positionally
// matching the request payload: either a response or an error envelope
// entry, never both.
type BatchItemResult struct {
	Status   int              `json:"status"`
	Response *SuggestResponse `json:"response,omitempty"`
	Error    *apiError        `json:"error,omitempty"`
}

// BatchSuggestResponse is the batch payload.
type BatchSuggestResponse struct {
	Results   []BatchItemResult `json:"results"`
	ElapsedMS float64           `json:"elapsedMs"`
}

// SetBatchSolve selects the /v1/suggest/batch execution model: grouped
// multi-RHS solving via Engine.DoBatch (true, the default) or the
// legacy independent-item path (false). Safe to call while serving;
// in-flight payloads finish on the model they started with.
func (s *Server) SetBatchSolve(on bool) { s.batchSolve.Store(on) }

// BatchSolve reports the active batch execution model.
func (s *Server) BatchSolve() bool { return s.batchSolve.Load() }

// handleSuggestBatch answers many suggestion requests in one round
// trip. Same-signature items share one blocked multi-RHS solve and one
// gate slot (see the file comment); results flow through the same
// suggestion cache as single requests, so popular items are also shared
// with concurrent single-request traffic.
func (s *Server) handleSuggestBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSuggestRequest
	if aerr := s.decodeBody(r, &req); aerr != nil {
		writeAPIError(w, r, statusOf(aerr.Code), aerr)
		return
	}
	if len(req.Requests) == 0 {
		writeAPIError(w, r, http.StatusBadRequest, newAPIError(codeBadBatch, "requests must be a non-empty array"))
		return
	}
	if len(req.Requests) > MaxBatchSize {
		writeAPIError(w, r, http.StatusRequestEntityTooLarge, newAPIError(codeBatchTooLarge,
			fmt.Sprintf("batch of %d exceeds the limit of %d", len(req.Requests), MaxBatchSize)))
		return
	}
	s.stats.batchRequests.Add(1)

	start := time.Now()
	var results []BatchItemResult
	if s.batchSolve.Load() {
		results = s.serveBatchGrouped(r.Context(), req.Requests)
	} else {
		results = s.serveBatchPerItem(r.Context(), req.Requests)
	}
	writeJSON(w, http.StatusOK, BatchSuggestResponse{
		Results:   results,
		ElapsedMS: ms(time.Since(start)),
	})
}

// batchGroup is the shared state of one solve group: the items of one
// payload whose requests carry the same solve signature. The first
// group member to reach the engine stage runs Engine.DoBatch for ALL
// lanes (sync.Once); every member then answers from its own lane. A
// group whose members are all rate-limited or degraded never solves.
type batchGroup struct {
	creqs []core.SuggestRequest
	items []int       // original payload indices, parallel to creqs
	pos   map[int]int // payload index → lane

	once    sync.Once
	results []core.Result
	errs    []error
}

// run executes the group's shared engine call exactly once.
func (g *batchGroup) run(ctx context.Context, s *Server, eng *core.Engine) {
	g.once.Do(func() {
		g.results, g.errs = eng.DoBatch(ctx, g.creqs)
		s.recordBatchSolve(g.results)
	})
}

// batchRunner adapts payload item i of group g to the pipelineFn seam
// of suggestRun: breaker routing per item, then the item's lane of the
// group's shared DoBatch result.
func (s *Server) batchRunner(g *batchGroup, i int) pipelineFn {
	return func(ctx context.Context, eng *core.Engine, creq core.SuggestRequest) (core.Result, bool, error, *apiError) {
		breaker := s.suggestBreaker()
		if !breaker.Allow() {
			return s.suggestDegraded(ctx, eng, creq, breaker)
		}
		g.run(ctx, s, eng)
		lane := g.pos[i]
		res, err := g.results[lane], g.errs[lane]
		s.recordBreaker(ctx, breaker, err, res.CacheHit)
		return res, false, err, nil
	}
}

// serveBatchGrouped is the solve-grouping execution model.
func (s *Server) serveBatchGrouped(rctx context.Context, reqs []SuggestRequest) []BatchItemResult {
	results := make([]BatchItemResult, len(reqs))

	// Group the payload by solve signature BEFORE any gate is touched.
	// Validation here only decides grouping; items that fail it run
	// ungrouped through suggestRun below, which re-validates with the
	// full accounting (counters, wide event) of the single path. The
	// grouping creq — not suggestRun's re-validated copy — is what the
	// shared solve computes, so all lanes anchor to one clock reading.
	groups := make(map[string]*batchGroup)
	itemGroup := make([]*batchGroup, len(reqs))
	for i := range reqs {
		creq, aerr := validateSuggestRequest(reqs[i])
		if aerr != nil {
			continue
		}
		sig := core.SolveSignature(creq)
		g := groups[sig]
		if g == nil {
			g = &batchGroup{pos: make(map[int]int)}
			groups[sig] = g
		}
		g.pos[i] = len(g.creqs)
		g.creqs = append(g.creqs, creq)
		g.items = append(g.items, i)
		itemGroup[i] = g
	}

	ctrl := s.admission.Load()
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g *batchGroup) {
			defer wg.Done()
			// ONE gate slot per solve group: a 64-item batch that
			// collapses to a handful of solves claims a handful of
			// slots, and duplicate items can no longer starve
			// interactive traffic by each holding one. A shed fails the
			// whole group — its items would all have waited on the same
			// denied solve.
			if ctrl != nil && ctrl.Suggest != nil {
				if aerr := s.acquireGate(rctx, ctrl.Suggest); aerr != nil {
					for _, i := range g.items {
						s.stats.suggestRequests.Add(1)
						results[i] = BatchItemResult{Status: statusOf(aerr.Code), Error: aerr}
					}
					return
				}
				defer ctrl.Suggest.Release()
			}
			var iwg sync.WaitGroup
			for _, i := range g.items {
				iwg.Add(1)
				go func(i int) {
					defer iwg.Done()
					resp, aerr := s.suggestRun(rctx, reqs[i], s.batchRunner(g, i))
					if aerr != nil {
						results[i] = BatchItemResult{Status: statusOf(aerr.Code), Error: aerr}
						return
					}
					results[i] = BatchItemResult{Status: http.StatusOK, Response: resp}
				}(i)
			}
			iwg.Wait()
		}(g)
	}
	// Items that failed grouping-time validation: no group, no gate —
	// suggestRun rejects them at validation before any engine work.
	for i := range reqs {
		if itemGroup[i] != nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, aerr := s.suggestRun(rctx, reqs[i], nil)
			if aerr != nil {
				results[i] = BatchItemResult{Status: statusOf(aerr.Code), Error: aerr}
				return
			}
			results[i] = BatchItemResult{Status: http.StatusOK, Response: resp}
		}(i)
	}
	wg.Wait()
	return results
}

// serveBatchPerItem is the legacy execution model: items run
// independently and compete for the same suggest gate as single
// requests, one slot each; solve sharing happens only through the
// suggestion cache.
func (s *Server) serveBatchPerItem(ctx context.Context, reqs []SuggestRequest) []BatchItemResult {
	results := make([]BatchItemResult, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if ctrl := s.admission.Load(); ctrl != nil {
				if aerr := s.acquireGate(ctx, ctrl.Suggest); aerr != nil {
					s.stats.suggestRequests.Add(1)
					results[i] = BatchItemResult{Status: statusOf(aerr.Code), Error: aerr}
					return
				}
				defer ctrl.Suggest.Release()
			}
			resp, aerr := s.suggestRun(ctx, reqs[i], nil)
			if aerr != nil {
				results[i] = BatchItemResult{Status: statusOf(aerr.Code), Error: aerr}
				return
			}
			results[i] = BatchItemResult{Status: http.StatusOK, Response: resp}
		}(i)
	}
	wg.Wait()
	return results
}
