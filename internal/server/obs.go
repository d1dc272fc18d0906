package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net/http"
	netpprof "net/http/pprof"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/slo"
)

// This file is the server half of the observability layer: the request
// middleware (request IDs, structured logs, metric-sink injection, the
// HTTP latency histogram), the /metrics and /debug/traces endpoints,
// optional net/http/pprof mounting, and the slow-query log.

// defaultTraceRingSize is how many completed suggestion traces
// /debug/traces retains.
const defaultTraceRingSize = 64

// SetLogger replaces the server's structured logger (default: discard).
// Every line carries the request ID of the request that produced it.
// Safe to call while serving.
func (s *Server) SetLogger(l *slog.Logger) {
	if l == nil {
		l = discardLogger()
	}
	s.logger.Store(l)
}

// Logger returns the current structured logger.
func (s *Server) Logger() *slog.Logger { return s.logger.Load() }

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(discardWriter{}, &slog.HandlerOptions{Level: slog.Level(127)}))
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// SetSlowQueryThreshold makes any suggestion slower than d log its full
// trace through the structured logger (and count in suggest.slow).
// Zero disables. Safe to call while serving.
func (s *Server) SetSlowQueryThreshold(d time.Duration) { s.slowQueryNs.Store(int64(d)) }

// SlowQueryThreshold returns the configured threshold.
func (s *Server) SlowQueryThreshold() time.Duration { return time.Duration(s.slowQueryNs.Load()) }

// EnablePProf mounts the net/http/pprof handlers under /debug/pprof on
// the next Handler() call. Off by default: profiling endpoints expose
// process internals and cost CPU while sampling, so production mounts
// opt in via the -pprof flag.
func (s *Server) EnablePProf() { s.pprofEnabled = true }

// Metrics returns the server's metric registry (the same one /metrics
// renders), so embedders can attach their own series.
func (s *Server) Metrics() *obs.Registry { return s.tel.registry }

// --- Request IDs -----------------------------------------------------

// requestIDSeq backs the fallback ID when crypto/rand fails (it
// practically cannot, but an ID must never be empty).
var requestIDSeq atomic.Int64

// newRequestID returns a 16-hex-char random request ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d", requestIDSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// --- Middleware ------------------------------------------------------

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// withObs wraps the whole mux: it accepts or assigns the X-Request-Id,
// echoes it on the response, injects the request ID and the metric sink
// into the request context (the sink is what lets the CG solver and the
// hitting-time loop record depth histograms from deep inside the
// pipeline), feeds the HTTP latency histogram, and writes one
// structured log line per request.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		ctx := obs.WithRequestID(r.Context(), id)
		ctx = obs.WithSink(ctx, s.tel.registry)

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		guarded := guardedPath(r.URL.Path)
		if guarded {
			// Per-IP token bucket, before any body is read: a single
			// flooding client is turned away at the door while /healthz
			// and /metrics stay reachable for operators.
			if ctrl := s.admission.Load(); ctrl != nil && ctrl.IPs != nil {
				if ok, retry := ctrl.IPs.Allow(clientIP(r.RemoteAddr)); !ok {
					s.stats.shedRateIP.Add(1)
					sw.status = http.StatusTooManyRequests
					writeShedFast(sw.ResponseWriter, shedBodyRateLimited, retry)
					s.tel.httpDuration.Observe(time.Since(start).Seconds())
					s.recordAvailability(sw.status)
					s.flightShed(id, slo.OutcomeShedRate)
					if lg := s.Logger(); lg.Enabled(ctx, slog.LevelWarn) {
						lg.LogAttrs(ctx, slog.LevelWarn, "request shed",
							slog.String("requestId", id),
							slog.String("reason", "rate_limited_ip"),
							slog.String("path", r.URL.Path))
					}
					return
				}
			}
			// Cap the body BEFORE the handler decodes it: one oversized
			// /v1/learn payload must be a 413, not an OOM. /v1/snapshot
			// is exempt — wire images dwarf API bodies by design and the
			// handler applies its own DefaultMaxSnapshotBytes cap.
			if max := s.maxBodyBytes.Load(); max > 0 && r.Body != nil && r.ContentLength != 0 &&
				r.URL.Path != "/v1/snapshot" {
				r.Body = http.MaxBytesReader(sw, r.Body, max)
			}
		}
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)

		// The request ID doubles as the exemplar trace key here (the
		// middleware never sees the suggestion trace ID); TraceRing.Find
		// resolves either.
		s.tel.httpDuration.ObserveExemplar(elapsed.Seconds(), id, id)
		if guarded {
			// The availability objective watches exactly the guarded API
			// surface: shed 429s are the server answering as designed,
			// only 5xx burns budget (recordAvailability classifies).
			s.recordAvailability(sw.status)
		}
		s.Logger().LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("requestId", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Float64("elapsedMs", ms(elapsed)),
		)
	})
}

// finishTrace closes out one suggestion trace: ring-buffer it, and when
// the request overran the slow-query threshold, log it in full. The
// strategy and generation ride along so a slow-query line is
// join-free: requestId, traceId, strategy and generation are all
// first-class structured fields.
func (s *Server) finishTrace(tr *obs.Trace, elapsed time.Duration, strategy string, generation uint64) obs.TraceSnapshot {
	snap := tr.Snapshot()
	s.traces.Add(snap)
	if thr := s.SlowQueryThreshold(); thr > 0 && elapsed > thr {
		s.stats.slowQueries.Add(1)
		attrs := []slog.Attr{
			slog.String("requestId", snap.ID),
			slog.String("traceId", snap.TraceID),
			slog.String("strategy", strategy),
			slog.Uint64("generation", generation),
			slog.Float64("elapsedMs", ms(elapsed)),
			slog.Float64("thresholdMs", ms(thr)),
		}
		for _, sp := range snap.Spans {
			attrs = append(attrs, slog.Group(sp.Name,
				slog.Float64("durationMs", sp.DurationMS),
				slog.Any("attrs", sp.Attrs)))
		}
		s.Logger().LogAttrs(context.Background(), slog.LevelWarn, "slow query", attrs...)
	}
	return snap
}

// --- Debug / exposition endpoints ------------------------------------

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.traces.Snapshots()})
}

// mountDebug wires the observability routes onto the mux: Prometheus
// exposition, the trace ring, exemplar lookup, the flight recorder, and
// (opt-in) pprof.
func (s *Server) mountDebug(mux *http.ServeMux) {
	mux.Handle("GET /metrics", s.tel.registry.Handler())
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/exemplars", s.handleExemplars)
	mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	if s.pprofEnabled {
		mux.HandleFunc("GET /debug/pprof/", netpprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
	}
}
