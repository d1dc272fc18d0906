// Package pqsda is the public facade of this reproduction of
// "Personalized Query Suggestion With Diversity Awareness" (Jiang,
// Leung, Vosecky, Ng — ICDE 2014).
//
// PQS-DA answers an ambiguous search query ("sun") with a suggestion
// list that is DIVERSIFIED — covering the query's facets (Sun
// Microsystems, the star, the newspaper) — and PERSONALIZED — ranked so
// the facets matching the user's long-term interests come first.
//
// # Quick start
//
//	log, _ := pqsda.ReadLogFile("queries.tsv") // or pqsda.SyntheticLog(...)
//	engine, _ := pqsda.NewEngine(log, pqsda.Config{})
//	res, _ := engine.Do(ctx, pqsda.SuggestRequest{User: "u0001", Query: "sun", K: 10})
//	fmt.Println(res.Suggestions)
//
// Engine.Do is the request API: a SuggestRequest carries the user, the
// query, optional session context, and knobs like K, NoCache and
// SkipPersonalization. Engines built for serving can attach a
// snapshot-keyed suggestion cache with Engine.EnableCache; cached
// entries are invalidated automatically when the engine is rebuilt
// (see internal/suggestcache).
//
// The heavy lifting lives in the internal packages (see DESIGN.md for
// the architecture): internal/bipartite builds the multi-bipartite
// query-log representation, internal/regularize and
// internal/hittingtime implement the two-phase diversification,
// internal/topicmodel trains the User Profiling Model, and
// internal/profile personalizes the ranking.
package pqsda

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/admission"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/querylog"
	"repro/internal/server"
	"repro/internal/synth"
	"repro/internal/topicmodel"
)

// Entry is one query-log record: who searched what, what they clicked
// (empty for no click), and when.
type Entry = querylog.Entry

// Log is an ordered collection of entries.
type Log = querylog.Log

// Session is one user's burst of queries serving a single information
// need.
type Session = querylog.Session

// Result is a suggestion run: the final personalized list, the
// intermediate diversified list, and timing/size diagnostics.
type Result = core.Result

// Engine is a ready-to-serve PQS-DA instance. Build one with NewEngine.
type Engine = core.Engine

// SuggestRequest is the versioned request object accepted by
// Engine.Do: user, query, optional session context, and per-request
// knobs (K, NoCache, SkipPersonalization).
type SuggestRequest = core.SuggestRequest

// SyntheticConfig parameterizes the synthetic query-log generator that
// stands in for a production search log.
type SyntheticConfig = synth.Config

// World is a generated synthetic universe: the log plus full ground
// truth (facets, page topics, user preferences) for evaluation.
type World = synth.World

// Config tunes the engine. The zero value reproduces the paper's
// recommended configuration: cf·iqf weighting, a 200-query compact
// representation, light regularization, and UPM-based personalization.
type Config struct {
	// RawWeights switches the multi-bipartite edges from cf·iqf to raw
	// frequencies (the paper's Fig. 3 ablation).
	RawWeights bool
	// CompactBudget is the paper's ℚ, the compact representation size
	// (default 200).
	CompactBudget int
	// Topics is the UPM topic count (default 10).
	Topics int
	// TrainingIterations is the UPM Gibbs sweep count (default 100).
	TrainingIterations int
	// Seed drives every stochastic component (sampler initialization).
	Seed int64
	// DiversificationOnly skips user profiling: Suggest returns the
	// diversified ranking unchanged (the intermediate system of the
	// paper's Section VI-B).
	DiversificationOnly bool
	// RefreshMode selects how Engine.Refresh/Rebuild rebuild the
	// representation: "full" (default; recount the whole log) or
	// "delta" (incremental build over the entries ingested since the
	// last build — bit-identical to full, much faster for small
	// deltas). Any other value is an error.
	RefreshMode string
	// Strategy selects the default diversification strategy: "hitting"
	// (default; the paper's Algorithm 1), "mmr", "pfar" or "relevance".
	// Per-request overrides go through SuggestRequest.Strategy; unknown
	// names are rejected by NewEngine.
	Strategy string
	// CompactCache bounds the engine's LRU of built compact
	// representations keyed by (snapshot generation, seed IDs). A hit
	// skips the representation carving and its derived matrices
	// (normalized affinities, Eq. 15 system, walker transition) while
	// every query-dependent stage still runs — results are
	// bit-identical with the cache on or off. 0 selects the default
	// (128 entries); negative disables it.
	CompactCache int
}

// NewEngine cleans the log, builds the multi-bipartite representation
// and (unless disabled) trains user profiles. The input log is not
// modified.
func NewEngine(l *Log, cfg Config) (*Engine, error) {
	cleaned, _ := querylog.Clean(l, querylog.CleanerConfig{})
	cc := core.Config{
		Compact:      bipartite.CompactConfig{Budget: cfg.CompactBudget},
		CompactCache: cfg.CompactCache,
		UPM: topicmodel.UPMConfig{
			K:          cfg.Topics,
			Iterations: cfg.TrainingIterations,
			Seed:       cfg.Seed,
		},
		SkipPersonalization: cfg.DiversificationOnly,
	}
	if cfg.RawWeights {
		cc.Weighting = bipartite.Raw
	} else {
		cc.Weighting = bipartite.CFIQF
	}
	switch cfg.RefreshMode {
	case "", "full":
		cc.Strategy = core.FullRebuild
	case "delta":
		cc.Strategy = core.DeltaRebuild
	default:
		return nil, fmt.Errorf("pqsda: RefreshMode %q (want \"full\" or \"delta\")", cfg.RefreshMode)
	}
	// core.NewEngine validates the name against the diversify registry.
	cc.Diversify.Strategy = cfg.Strategy
	return core.NewEngine(cleaned, cc)
}

// AdvancedConfig exposes every stage's tunables for research use; see
// the internal packages' documentation for the semantics.
type AdvancedConfig = core.Config

// AdmissionConfig assembles the serving-time overload protections
// (internal/admission): per-user/per-IP token-bucket rate limits,
// bounded concurrency gates per stage class, and the circuit breaker
// that degrades to cached suggestion lists under sustained pressure.
// Install on a server with server.Server.SetAdmission. The zero value
// disables everything; DefaultAdmissionConfig is the recommended
// serving posture.
type AdmissionConfig = admission.Config

// RateLimitConfig tunes one token-bucket rate limiter of an
// AdmissionConfig.
type RateLimitConfig = admission.RateConfig

// GateConfig tunes one bounded concurrency gate of an AdmissionConfig.
type GateConfig = admission.GateConfig

// BreakerConfig tunes the AdmissionConfig circuit breaker.
type BreakerConfig = admission.BreakerConfig

// DefaultAdmissionConfig returns the recommended serving posture:
// suggestion concurrency capped at 4×GOMAXPROCS with a bounded wait
// queue, mutating endpoints single-file, breaker at 50% failures over
// 10s, rate limiters off (per-key rates are deployment-specific).
func DefaultAdmissionConfig() AdmissionConfig { return admission.DefaultConfig() }

// SLOConfig declares the serving service-level objectives
// (internal/server, internal/slo): the end-to-end latency budget, the
// availability and full-fidelity goals, the flight-recorder sizing and
// the burn-rate evaluation cadence. Install on a server with
// server.Server.EnableSLO; the burn state drives /v1/health, the
// admission advisory, and automatic flight-recorder dumps.
type SLOConfig = server.SLOConfig

// DefaultSLOConfig returns the recommended SLO posture: 250ms
// end-to-end p99, 99.9% availability, 99% full-fidelity responses, a
// 4096-event flight recorder, evaluation every 10s.
func DefaultSLOConfig() SLOConfig { return server.DefaultSLOConfig() }

// NewEngineAdvanced builds an engine from a fully explicit
// configuration without cleaning the log first.
func NewEngineAdvanced(l *Log, cfg AdvancedConfig) (*Engine, error) {
	return core.NewEngine(l, cfg)
}

// SyntheticLog generates a synthetic world (log + ground truth). Use
// World.Log as the engine input and the World's oracles for
// evaluation.
func SyntheticLog(cfg SyntheticConfig) *World {
	return synth.Generate(cfg)
}

// ReadLog parses a TSV query log (UserID, Query, ClickedURL, Timestamp
// with a header line) from r.
func ReadLog(r io.Reader) (*Log, error) {
	return querylog.ReadTSV(r)
}

// ReadLogFile parses a TSV query log from a file.
func ReadLogFile(path string) (*Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return querylog.ReadTSV(f)
}

// ReadAOLLog parses the classic AOL-2006 query-log format
// (AnonID\tQuery\tQueryTime\tItemRank\tClickURL).
func ReadAOLLog(r io.Reader) (*Log, error) {
	return querylog.ReadAOL(r)
}

// WriteLog serializes a log as TSV.
func WriteLog(l *Log, w io.Writer) error {
	return l.WriteTSV(w)
}

// Sessionize segments a log into sessions with the default
// configuration (30-minute timeout with lexical-similarity rescue).
func Sessionize(l *Log) []Session {
	return querylog.Sessionize(l, querylog.SessionizerConfig{})
}

// Suggest is a convenience one-shot: build an engine over the log and
// produce k personalized suggestions for the user's query at time now.
// For repeated queries, build the Engine once and reuse it.
func Suggest(l *Log, userID, query string, k int, cfg Config) ([]string, error) {
	e, err := NewEngine(l, cfg)
	if err != nil {
		return nil, err
	}
	res, err := e.Do(context.Background(), SuggestRequest{User: userID, Query: query, K: k})
	if err != nil {
		return nil, err
	}
	return res.Suggestions, nil
}
