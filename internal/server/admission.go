package server

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/slo"
)

// This file is the server half of the admission-control layer
// (internal/admission): per-IP and per-user token buckets answering
// 429 + Retry-After, bounded concurrency gates per stage class
// (suggest / learn / refresh) that shed instead of queueing unboundedly,
// the circuit-breaker degraded path that serves the cached diversified
// list when the personalize/hitting stage is tripped, and the
// request-body cap. Shedding is engineered to be nearly free: the
// flood fast path writes a precomputed envelope and costs two header
// allocations per shed request (guarded by BenchmarkShedPath).

// DefaultMaxBodyBytes caps /v1 POST bodies at 1 MiB unless
// SetMaxBodyBytes overrides it. Without a cap, one oversized
// /v1/learn payload is an OOM, not a 413.
const DefaultMaxBodyBytes = 1 << 20

// SetAdmission installs the overload-protection layer built from cfg:
// rate limiters, stage-class concurrency gates and the personalize/
// hitting circuit breaker. The zero Config disables every mechanism.
// Safe to call while serving; in-flight requests finish under the
// controller they started with.
func (s *Server) SetAdmission(cfg admission.Config) {
	s.admission.Store(admission.New(cfg))
}

// Admission returns the active admission controller, nil when none was
// installed.
func (s *Server) Admission() *admission.Controller { return s.admission.Load() }

// SetMaxBodyBytes caps every /v1 POST body; overflow is a 413
// payload_too_large envelope. Zero disables the cap (not recommended).
// Safe to call while serving.
func (s *Server) SetMaxBodyBytes(n int64) { s.maxBodyBytes.Store(n) }

// MaxBodyBytes reports the configured request-body cap.
func (s *Server) MaxBodyBytes() int64 { return s.maxBodyBytes.Load() }

// guardedPath reports whether admission control and the body cap apply
// to this route. Only the API surface is guarded: health checks
// (/healthz AND /v1/health — a readiness probe must answer while the
// server sheds, and must not burn the availability budget it reports
// on) and the observability endpoints stay reachable.
func guardedPath(path string) bool {
	if path == "/v1/health" {
		return false
	}
	return strings.HasPrefix(path, "/v1/")
}

// clientIP strips the port from a RemoteAddr ("1.2.3.4:56" → "1.2.3.4",
// "[::1]:56" → "[::1]") without allocating.
func clientIP(remote string) string {
	if i := strings.LastIndexByte(remote, ':'); i >= 0 {
		return remote[:i]
	}
	return remote
}

// --- Fast shed path --------------------------------------------------

// Precomputed envelope bodies for the shed fast path: shedding a flood
// must not pay JSON marshalling per request. They match the /v1 error
// envelope shape minus the requestId detail — clients correlate via the
// X-Request-Id response header the middleware already set.
var (
	shedBodyOverloaded  = []byte(`{"error":{"code":"overloaded","message":"server at concurrency capacity, retry later"}}` + "\n")
	shedBodyRateLimited = []byte(`{"error":{"code":"rate_limited","message":"rate limit exceeded, retry later"}}` + "\n")
)

// retryAfterStrings serves Retry-After header values for small waits
// from a static table so the flood path does not allocate per shed.
var retryAfterStrings = [...]string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10"}

// retryAfterValue renders a Retry-After header value: whole seconds,
// rounded up, at least 1 (RFC 7231 wants a non-negative integer, and 0
// would invite an immediate retry storm).
func retryAfterValue(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	if secs <= len(retryAfterStrings) {
		return retryAfterStrings[secs-1]
	}
	return strconv.Itoa(secs)
}

// writeShedFast writes a 429 with Retry-After and a precomputed
// envelope body. Two allocations per call (the two header value
// slices) — this is the per-request cost of surviving a flood.
func writeShedFast(w http.ResponseWriter, body []byte, retry time.Duration) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Retry-After", retryAfterValue(retry))
	w.WriteHeader(http.StatusTooManyRequests)
	_, _ = w.Write(body)
}

// admitSuggest gates one single-request suggestion (GET/POST
// /v1/suggest) through the suggest concurrency gate. It returns the
// gate to Release (nil when gating is disabled) and whether the request
// was admitted; on a shed the 429 response has already been written.
func (s *Server) admitSuggest(ctx context.Context, w http.ResponseWriter) (*admission.Gate, bool) {
	ctrl := s.admission.Load()
	if ctrl == nil || ctrl.Suggest == nil {
		return nil, true
	}
	depth, err := ctrl.Suggest.Acquire(ctx)
	s.tel.queueDepth.Observe(float64(depth))
	if err == nil {
		s.stats.admitted.Add(1)
		return ctrl.Suggest, true
	}
	s.stats.shedOverloaded.Add(1)
	writeShedFast(w, shedBodyOverloaded, ctrl.Suggest.RetryAfter())
	// Wide event + structured line for the shed. Both stay inside the
	// flood budget (BenchmarkShedPath): the event is stack-built and
	// Record is allocation-free; the log attrs are only materialized
	// when the level is enabled (the benchmark's logger discards).
	s.flightShed(obs.RequestIDFrom(ctx), slo.OutcomeShedGate)
	if lg := s.Logger(); lg.Enabled(ctx, slog.LevelWarn) {
		lg.LogAttrs(ctx, slog.LevelWarn, "request shed",
			slog.String("requestId", obs.RequestIDFrom(ctx)),
			slog.String("reason", "overloaded"),
			slog.Int("queueDepth", depth))
	}
	return nil, false
}

// acquireGate claims a slot on g (nil admits everything), observing the
// queue depth, and returns the 429 envelope when shed. On success the
// caller owns a slot and must g.Release().
func (s *Server) acquireGate(ctx context.Context, g *admission.Gate) *apiError {
	if g == nil {
		return nil
	}
	depth, err := g.Acquire(ctx)
	s.tel.queueDepth.Observe(float64(depth))
	if err == nil {
		s.stats.admitted.Add(1)
		return nil
	}
	s.stats.shedOverloaded.Add(1)
	return overloadedError(g.RetryAfter())
}

// --- Shed / degraded envelope helpers --------------------------------

// overloadedError is the 429 envelope for concurrency-gate sheds.
func overloadedError(retry time.Duration) *apiError {
	return retryableError(codeOverloaded, "server at concurrency capacity, retry later", retry)
}

// rateLimitedError is the 429 envelope for token-bucket sheds.
func rateLimitedError(retry time.Duration) *apiError {
	return retryableError(codeRateLimited, "rate limit exceeded, retry later", retry)
}

// degradedUnavailableError is the 503 envelope for breaker-open
// requests whose query has no cached diversified list to fall back on.
func degradedUnavailableError(retry time.Duration) *apiError {
	return retryableError(codeDegraded, "suggestion pipeline degraded and no cached list for this query", retry)
}

func retryableError(code, msg string, retry time.Duration) *apiError {
	e := newAPIError(code, msg)
	e.retryAfter = retry
	secs, _ := strconv.Atoi(retryAfterValue(retry))
	e.Details = map[string]any{"retryAfterSeconds": secs}
	return e
}

// --- Breaker integration ---------------------------------------------

// suggestPipeline runs the engine for one admitted suggestion request,
// routing through the circuit breaker: when the breaker is closed (or
// this request is a half-open probe) the real pipeline runs and its
// outcome is recorded; when open, the request is answered from the
// generation-keyed suggestion cache only (degraded), or shed with 503
// when no cached list exists. degraded reports which path answered.
func (s *Server) suggestPipeline(ctx context.Context, eng *core.Engine, creq core.SuggestRequest) (res core.Result, degraded bool, err error, aerr *apiError) {
	breaker := s.suggestBreaker()
	if !breaker.Allow() {
		return s.suggestDegraded(ctx, eng, creq, breaker)
	}
	res, err = eng.Do(ctx, creq)
	s.recordSolve(res)
	s.recordBreaker(ctx, breaker, err, res.CacheHit)
	return res, false, err, nil
}

// suggestBreaker returns the installed circuit breaker, nil (which
// admits everything — Allow is nil-receiver safe) when admission
// control is off.
func (s *Server) suggestBreaker() *admission.Breaker {
	if ctrl := s.admission.Load(); ctrl != nil {
		return ctrl.Breaker
	}
	return nil
}

// suggestDegraded answers one request while the breaker is open: from
// the generation-keyed suggestion cache when possible, then via the
// brownout strategy, else the 503 degraded envelope. Shared by the
// single-request pipeline and the batch group runner.
func (s *Server) suggestDegraded(ctx context.Context, eng *core.Engine, creq core.SuggestRequest, breaker *admission.Breaker) (res core.Result, degraded bool, err error, aerr *apiError) {
	s.stats.degradedRequests.Add(1)
	dreq := creq
	dreq.CachedOnly = true
	res, err = eng.Do(ctx, dreq)
	if errors.Is(err, core.ErrNotCached) {
		// Brownout: before shedding with 503, a designated cheap
		// strategy (SetBrownoutStrategy, typically "relevance") may
		// answer the miss by running the pipeline without the
		// expensive stage the breaker protects.
		if bres, berr, ok := s.serveBrownout(ctx, eng, creq); ok {
			return bres, true, berr, nil
		}
		s.stats.degradedMisses.Add(1)
		return res, true, nil, degradedUnavailableError(breaker.RetryAfter())
	}
	return res, true, err, nil
}

// recordBreaker reports one pipeline run to the breaker. Only real
// pipeline runs inform it: counting cache hits would dilute the failure
// rate of the stage the breaker protects, and a client that
// disconnected mid-request says nothing about pipeline health. Those
// requests Forfeit instead — if Allow had admitted them as a half-open
// probe, the slot must be returned or recovery wedges.
func (s *Server) recordBreaker(ctx context.Context, breaker *admission.Breaker, err error, cacheHit bool) {
	if breaker == nil {
		return
	}
	if success, record := breakerOutcome(ctx, err); record && !cacheHit {
		breaker.Record(success)
	} else {
		breaker.Forfeit()
	}
}

// breakerOutcome classifies one pipeline result for the breaker.
// Unknown queries are healthy traffic; a client cancellation is
// nobody's failure; a deadline overrun or pipeline error is exactly
// the pressure signal the breaker watches.
func breakerOutcome(ctx context.Context, err error) (success, record bool) {
	switch {
	case err == nil, errors.Is(err, core.ErrUnknownQuery):
		return true, true
	case errors.Is(ctx.Err(), context.Canceled):
		return false, false
	default:
		return false, true
	}
}
