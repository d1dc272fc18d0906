package server

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/slo"
)

// This file wires the SLO subsystem (internal/slo) into the server:
// objective registration from one declarative config, good/bad event
// recording from the serving path, the periodic burn-rate evaluation
// loop (which feeds /v1/health, sets the admission advisory, and dumps
// the flight recorder on a fast-burn transition), and the two debug
// endpoints that close the observability loop — /debug/exemplars (from
// "p99 is high" to the span tree of an actual slow request, with
// per-stage budget attribution) and /debug/flightrecorder (the wide
// events of every recent request as JSONL).

// SLOConfig declares the server's service-level objectives and the
// flight-recorder/evaluation plumbing around them. The zero value of
// any field takes the documented default; DefaultSLOConfig returns the
// whole recommended posture.
type SLOConfig struct {
	// LatencyP99 is the end-to-end suggestion latency budget: the
	// latency objective counts a request good iff it finished within
	// it. Stage sub-objectives get fixed fractions of this budget
	// (compact 15%, solve 35%, hitting 35%, personalize 15%).
	LatencyP99 time.Duration
	// Availability is the good-ratio goal over guarded API requests
	// (good = status < 500).
	Availability float64
	// LatencyGoal is the good-ratio goal of the latency objectives
	// (0.99 = "99% of requests within budget", i.e. a p99 target).
	LatencyGoal float64
	// DegradedRatio is the goal for the fraction of suggestion
	// responses served at full fidelity (not breaker-degraded).
	DegradedRatio float64
	// FlightRecorderSize is the wide-event ring capacity.
	FlightRecorderSize int
	// DumpDir, when set, receives an automatic flight-recorder JSONL
	// dump every time an objective transitions into fast burn.
	DumpDir string
	// SnapshotMaxAge, when positive, marks the engine component
	// degraded on /v1/health once the serving snapshot is older.
	SnapshotMaxAge time.Duration
	// EvalInterval is the background burn-rate evaluation period. Zero
	// disables the ticker (tests drive EvaluateSLO directly).
	EvalInterval time.Duration
	// ExemplarMinAge rate-limits per-bucket exemplar rotation (0: 1s;
	// negative: rotate every observation — test mode).
	ExemplarMinAge time.Duration
	// Burn tunes the burn-rate windows and clock (zero: SRE-workbook
	// defaults; tests inject a fake clock here).
	Burn slo.Config
}

// DefaultSLOConfig is the recommended posture: 250ms end-to-end p99,
// 99.9% availability, 99% of responses at full fidelity, a 4096-event
// recorder, evaluation every 10s.
func DefaultSLOConfig() SLOConfig {
	return SLOConfig{
		LatencyP99:         250 * time.Millisecond,
		Availability:       0.999,
		LatencyGoal:        0.99,
		DegradedRatio:      0.99,
		FlightRecorderSize: slo.DefaultFlightRecorderSize,
		EvalInterval:       10 * time.Second,
	}
}

func (c SLOConfig) withDefaults() SLOConfig {
	d := DefaultSLOConfig()
	if c.LatencyP99 <= 0 {
		c.LatencyP99 = d.LatencyP99
	}
	if c.Availability <= 0 || c.Availability >= 1 {
		c.Availability = d.Availability
	}
	if c.LatencyGoal <= 0 || c.LatencyGoal >= 1 {
		c.LatencyGoal = d.LatencyGoal
	}
	if c.DegradedRatio <= 0 || c.DegradedRatio >= 1 {
		c.DegradedRatio = d.DegradedRatio
	}
	if c.FlightRecorderSize <= 0 {
		c.FlightRecorderSize = d.FlightRecorderSize
	}
	return c
}

// stageBudgetShares split the end-to-end budget across the pipeline
// stages for the per-stage latency objectives. They sum to 1; the
// solver stages get the lion's share because that is where regressions
// live (Fig. 7 of the paper).
var stageBudgetShares = []struct {
	stage string
	share float64
}{
	{"compact", 0.15},
	{"solve", 0.35},
	{"hitting", 0.35},
	{"personalize", 0.15},
}

// sloRuntime is the per-server SLO state installed by EnableSLO.
type sloRuntime struct {
	cfg          SLOConfig
	engine       *slo.Engine
	availability *slo.Tracker
	latencyTotal *slo.Tracker
	stageLatency map[string]*slo.Tracker
	fidelity     *slo.Tracker
	flight       *slo.FlightRecorder
	dumpedInPass atomic.Bool
	stop         chan struct{}
	stopOnce     sync.Once
}

// EnableSLO installs the SLO subsystem: registers the objectives,
// allocates the flight recorder, turns on exemplar retention for the
// latency histograms, hooks fast-burn transitions to the recorder dump,
// and (when EvalInterval > 0) starts the background evaluation loop.
// Call before Handler()/serving; calling again replaces the previous
// runtime (the old evaluation loop is stopped).
func (s *Server) EnableSLO(cfg SLOConfig) {
	cfg = cfg.withDefaults()
	if old := s.sloState.Load(); old != nil {
		old.close()
	}
	eng := slo.NewEngine(cfg.Burn)
	rt := &sloRuntime{
		cfg:          cfg,
		engine:       eng,
		stageLatency: make(map[string]*slo.Tracker, len(stageBudgetShares)),
		flight:       slo.NewFlightRecorder(cfg.FlightRecorderSize),
		stop:         make(chan struct{}),
	}
	rt.availability = eng.Register(slo.Objective{
		Name: "availability",
		Help: "Guarded API requests answered without a 5xx.",
		Goal: cfg.Availability,
	})
	rt.latencyTotal = eng.Register(slo.Objective{
		Name:          "latency_total",
		Help:          "Suggestions finished within the end-to-end budget.",
		Goal:          cfg.LatencyGoal,
		LatencyBudget: cfg.LatencyP99,
	})
	for _, sb := range stageBudgetShares {
		rt.stageLatency[sb.stage] = eng.Register(slo.Objective{
			Name:          "latency_" + sb.stage,
			Help:          "Stage runs finished within the stage's share of the budget.",
			Goal:          cfg.LatencyGoal,
			LatencyBudget: time.Duration(float64(cfg.LatencyP99) * sb.share),
		})
	}
	rt.fidelity = eng.Register(slo.Objective{
		Name: "full_fidelity",
		Help: "Suggestion responses served by the full pipeline (not breaker-degraded).",
		Goal: cfg.DegradedRatio,
	})
	eng.OnFastBurn(func(st slo.Status) {
		s.Logger().LogAttrs(context.Background(), slog.LevelError, "slo fast burn",
			slog.String("objective", st.Name),
			slog.Float64("burnLong", st.FastLong),
			slog.Float64("burnShort", st.FastShort),
			slog.Float64("budgetRemaining", st.BudgetRemaining))
		if cfg.DumpDir == "" {
			return
		}
		// Several objectives often cross into fast burn at the same
		// evaluation (e.g. one slow dependency breaches every stage
		// budget at once); the ring contents are identical, so write
		// one dump per evaluation pass, not one per objective.
		if !rt.dumpedInPass.CompareAndSwap(false, true) {
			return
		}
		path, err := rt.flight.DumpToDir(cfg.DumpDir)
		if err != nil {
			s.Logger().LogAttrs(context.Background(), slog.LevelError, "flight recorder dump failed",
				slog.String("objective", st.Name), slog.String("error", err.Error()))
			return
		}
		s.Logger().LogAttrs(context.Background(), slog.LevelWarn, "flight recorder dumped",
			slog.String("objective", st.Name), slog.String("path", path))
	})

	// Exemplar retention on the histograms whose tails operators chase.
	for _, h := range s.tel.stages {
		h.EnableExemplars(cfg.ExemplarMinAge)
	}
	for _, h := range s.tel.selectDuration {
		h.EnableExemplars(cfg.ExemplarMinAge)
	}
	s.tel.httpDuration.EnableExemplars(cfg.ExemplarMinAge)

	s.sloState.Store(rt)

	if cfg.EvalInterval > 0 {
		go func() {
			t := time.NewTicker(cfg.EvalInterval)
			defer t.Stop()
			for {
				select {
				case <-rt.stop:
					return
				case <-t.C:
					s.EvaluateSLO()
				}
			}
		}()
	}
}

func (rt *sloRuntime) close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
}

// Close releases the server's background resources (the SLO evaluation
// loop). Safe to call multiple times and on a server without SLOs.
func (s *Server) Close() {
	if rt := s.sloState.Load(); rt != nil {
		rt.close()
	}
}

// EvaluateSLO runs one burn-rate evaluation across every objective,
// updates the admission advisory from the worst state, and returns the
// statuses. The background loop calls it every EvalInterval; tests call
// it directly after advancing their fake clock. Nil-safe: returns nil
// when SLOs are disabled.
func (s *Server) EvaluateSLO() []slo.Status {
	rt := s.sloState.Load()
	if rt == nil {
		return nil
	}
	rt.dumpedInPass.Store(false)
	out := rt.engine.Evaluate()
	if ctrl := s.admission.Load(); ctrl != nil {
		switch rt.engine.State() {
		case slo.FastBurn:
			ctrl.SetAdvisory(admission.AdvisoryShed)
		case slo.SlowBurn:
			ctrl.SetAdvisory(admission.AdvisoryConserve)
		default:
			ctrl.SetAdvisory(admission.AdvisoryNone)
		}
	}
	return out
}

// SLOStatuses returns the objectives' statuses as of the last
// evaluation (nil when SLOs are disabled).
func (s *Server) SLOStatuses() []slo.Status {
	if rt := s.sloState.Load(); rt != nil {
		return rt.engine.Statuses()
	}
	return nil
}

// SLOState returns the worst objective state as of the last evaluation
// (Healthy when SLOs are disabled).
func (s *Server) SLOState() slo.State {
	if rt := s.sloState.Load(); rt != nil {
		return rt.engine.State()
	}
	return slo.Healthy
}

// FlightRecorder returns the wide-event ring (nil when SLOs are
// disabled).
func (s *Server) FlightRecorder() *slo.FlightRecorder {
	if rt := s.sloState.Load(); rt != nil {
		return rt.flight
	}
	return nil
}

// --- Serving-path recording -------------------------------------------

// recordAvailability counts one guarded API response against the
// availability objective (good = no 5xx). Shed 429s are good events:
// the server answered as designed; only server faults burn the budget.
func (s *Server) recordAvailability(status int) {
	if rt := s.sloState.Load(); rt != nil {
		rt.availability.Record(status < 500)
	}
}

// recordSuggestSLO classifies one completed suggestion for the latency
// and fidelity objectives.
func (s *Server) recordSuggestSLO(res core.Result, elapsed time.Duration, degraded bool) {
	rt := s.sloState.Load()
	if rt == nil {
		return
	}
	rt.latencyTotal.ObserveLatency(elapsed)
	if res.CompactTime > 0 {
		rt.stageLatency["compact"].ObserveLatency(res.CompactTime)
	}
	if res.SolveTime > 0 {
		rt.stageLatency["solve"].ObserveLatency(res.SolveTime)
	}
	if res.HittingTime > 0 {
		rt.stageLatency["hitting"].ObserveLatency(res.HittingTime)
	}
	if res.PersonalizeTime > 0 {
		rt.stageLatency["personalize"].ObserveLatency(res.PersonalizeTime)
	}
	rt.fidelity.Record(!degraded)
}

// classifySuggest maps one pipeline outcome to its flight-recorder
// disposition and HTTP status, mirroring exactly the branches
// suggestRun takes when shaping the response.
func classifySuggest(ctx context.Context, degraded bool, err error, aerr *apiError) (slo.Outcome, int) {
	switch {
	case aerr != nil:
		// Breaker open, nothing cached, no brownout: 503.
		return slo.OutcomeDegradedMiss, statusOf(aerr.Code)
	case err != nil && errors.Is(err, core.ErrUnknownStrategy):
		return slo.OutcomeBadRequest, http.StatusBadRequest
	case err != nil && ctx.Err() != nil:
		return slo.OutcomeTimeout, http.StatusGatewayTimeout
	case err != nil && errors.Is(err, core.ErrUnknownQuery):
		return slo.OutcomeUnknownQuery, http.StatusOK
	case err != nil:
		return slo.OutcomeError, http.StatusInternalServerError
	case degraded:
		return slo.OutcomeDegraded, http.StatusOK
	default:
		return slo.OutcomeOK, http.StatusOK
	}
}

// flightEvent assembles and records one wide event. The event lives on
// the stack and Record copies it into the ring, so the whole call is
// allocation-free — cheap enough for the shed path's per-request
// budget. No-op when SLOs are disabled.
func (s *Server) flightEvent(reqID, traceID string, creq core.SuggestRequest, res core.Result,
	elapsed time.Duration, outcome slo.Outcome, status int, degraded, brownout bool) {
	rt := s.sloState.Load()
	if rt == nil {
		return
	}
	var ev slo.WideEvent
	ev.UnixNano = time.Now().UnixNano()
	ev.SetRequestID(reqID)
	ev.SetTraceID(traceID)
	ev.SetStrategy(res.Strategy)
	ev.Outcome = outcome
	ev.Status = uint16(status)
	ev.K = uint16(creq.K)
	ev.Generation = res.Generation
	ev.CacheHit = res.CacheHit
	ev.Degraded = degraded
	ev.Brownout = brownout
	ev.TotalNs = int64(elapsed)
	ev.CompactNs = int64(res.CompactTime)
	ev.SolveNs = int64(res.SolveTime)
	ev.HittingNs = int64(res.HittingTime)
	ev.PersonalizeNs = int64(res.PersonalizeTime)
	if ctrl := s.admission.Load(); ctrl != nil {
		ev.GateDepth = int32(ctrl.Suggest.Waiting())
		ev.BreakerState = uint8(ctrl.Breaker.StateValue())
	}
	rt.flight.Record(&ev)
}

// flightShed records the wide event of a request shed before the
// pipeline ran (gate full, rate limited). Stays within the shed path's
// two-allocation budget: the event is stack-built and Record is
// allocation-free.
func (s *Server) flightShed(reqID string, outcome slo.Outcome) {
	rt := s.sloState.Load()
	if rt == nil {
		return
	}
	var ev slo.WideEvent
	ev.UnixNano = time.Now().UnixNano()
	ev.SetRequestID(reqID)
	ev.Outcome = outcome
	ev.Status = http.StatusTooManyRequests
	if ctrl := s.admission.Load(); ctrl != nil {
		ev.GateDepth = int32(ctrl.Suggest.Waiting())
		ev.BreakerState = uint8(ctrl.Breaker.StateValue())
	}
	rt.flight.Record(&ev)
}

// --- Debug endpoints --------------------------------------------------

// exemplarEntry is one pinned observation on /debug/exemplars: the
// metric bucket it occupies, the request behind it, and — when the
// trace is still in the ring — the per-stage budget attribution
// computed from its span tree.
type exemplarEntry struct {
	Metric    string     `json:"metric"`
	Labels    obs.Labels `json:"labels,omitempty"`
	Le        string     `json:"le"`
	Value     float64    `json:"value"`
	RequestID string     `json:"requestId"`
	TraceID   string     `json:"traceId"`
	At        time.Time  `json:"at"`
	// Attribution breaks the traced request's wall time down by span —
	// the "where did the budget go" answer. Absent when the trace has
	// rotated out of the ring.
	Attribution *traceAttribution `json:"attribution,omitempty"`
}

// traceAttribution is the per-span cost breakdown of one trace.
type traceAttribution struct {
	TotalMs float64           `json:"totalMs"`
	Spans   []spanAttribution `json:"spans"`
}

type spanAttribution struct {
	Name       string  `json:"name"`
	DurationMs float64 `json:"durationMs"`
	// PctOfTotal is the span's share of the end-to-end wall time in
	// percent. Spans overlap (suggest contains the stage spans), so the
	// shares do not sum to 100.
	PctOfTotal float64 `json:"pctOfTotal"`
}

func attributeTrace(ts obs.TraceSnapshot) *traceAttribution {
	out := &traceAttribution{TotalMs: ts.DurationMS}
	for _, sp := range ts.Spans {
		pct := 0.0
		if ts.DurationMS > 0 {
			pct = 100 * sp.DurationMS / ts.DurationMS
		}
		out.Spans = append(out.Spans, spanAttribution{
			Name: sp.Name, DurationMs: sp.DurationMS, PctOfTotal: pct,
		})
	}
	return out
}

// handleExemplars serves GET /debug/exemplars: every pinned exemplar
// across the histogram families, each resolved (when possible) against
// the trace ring into a per-stage budget attribution. ?trace=<id>
// resolves one trace/request ID directly.
func (s *Server) handleExemplars(w http.ResponseWriter, r *http.Request) {
	if s.sloState.Load() == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "slo subsystem disabled; start with EnableSLO / -slo flags"})
		return
	}
	if id := r.URL.Query().Get("trace"); id != "" {
		ts, ok := s.traces.Find(id)
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "trace not in the ring", "trace": id})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"trace":       ts,
			"attribution": attributeTrace(ts),
		})
		return
	}
	var entries []exemplarEntry
	for _, hs := range s.tel.registry.Histograms() {
		snap := hs.Hist.Snapshot()
		if snap.Exemplars == nil {
			continue
		}
		for i, ex := range snap.Exemplars {
			if ex == nil {
				continue
			}
			le := "+Inf"
			if i < len(snap.Bounds) {
				le = strconv.FormatFloat(snap.Bounds[i], 'g', -1, 64)
			}
			e := exemplarEntry{
				Metric: hs.Name, Labels: hs.Labels, Le: le,
				Value: ex.Value, RequestID: ex.RequestID, TraceID: ex.TraceID, At: ex.Time,
			}
			if ts, ok := s.traces.Find(ex.TraceID); ok {
				e.Attribution = attributeTrace(ts)
			}
			entries = append(entries, e)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"exemplars": entries})
}

// handleFlightRecorder serves GET /debug/flightrecorder: the wide-event
// ring as JSONL, oldest first.
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	rt := s.sloState.Load()
	if rt == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "slo subsystem disabled; start with EnableSLO / -slo flags"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Flightrecorder-Capacity", strconv.Itoa(rt.flight.Size()))
	w.Header().Set("X-Flightrecorder-Recorded", strconv.FormatUint(rt.flight.Recorded(), 10))
	if _, err := rt.flight.WriteJSONL(w); err != nil {
		// Headers are gone; nothing to do but note it.
		s.Logger().LogAttrs(r.Context(), slog.LevelWarn, "flight recorder dump aborted",
			slog.String("error", err.Error()))
	}
}

// sloStatsPayload is the /v1/stats "slo" section.
func (s *Server) sloStatsPayload() map[string]any {
	rt := s.sloState.Load()
	if rt == nil {
		return map[string]any{"enabled": false}
	}
	return map[string]any{
		"enabled":    true,
		"state":      rt.engine.State().String(),
		"objectives": rt.engine.Statuses(),
		"flightRecorder": map[string]any{
			"capacity": rt.flight.Size(),
			"recorded": rt.flight.Recorded(),
			"dumps":    rt.flight.Dumps(),
		},
		"latencyBudgetMs": float64(rt.cfg.LatencyP99.Microseconds()) / 1000,
	}
}
