package main

import (
	"io"
	"log/slog"
	"runtime"
	"sort"
	"time"

	pqsda "repro"
	"repro/internal/admission"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/querylog"
	"repro/internal/server"
	"repro/internal/synth"
	"repro/internal/topicmodel"
)

// worldConfig is the one fixture every workload runs on: the
// PaperScale shape at 150 users (≈14.6k entries, ≈3.8k distinct
// queries). Only the seed and, for the unit tests' tiny world, the user
// and session counts vary.
func worldConfig(seed int64, users, sessions int) synth.Config {
	return synth.Config{
		Seed: seed, NumFacets: 12, NumUsers: users, SessionsPerUser: sessions,
		VocabPerFacet: 40, URLsPerFacet: 80, SharedTerms: 8,
		ClickProb: 0.4, NoiseClickProb: 0.15,
	}
}

// servingSweeps is the UPM Gibbs sweep count `cmd/pqsda` trains with
// (its NewEngine call passes 60, not the library default of 100).
const servingSweeps = 60

// engineConfig is the configuration `cmd/pqsda -serve -refresh-mode
// delta` builds its engine with: the paper's ℚ = 200 and 10 topics,
// servingSweeps Gibbs sweeps (the unit tests train shorter).
func engineConfig(seed int64, sweeps int) pqsda.Config {
	return pqsda.Config{Seed: seed, RefreshMode: "delta", TrainingIterations: sweeps}
}

// Serving constants of `cmd/pqsda -serve` at default flags.
const (
	suggestCacheSize = 4096
	requestTimeout   = 5 * time.Second
	slowQuery        = 250 * time.Millisecond
)

// buildEngine is one cold set-up: generate the world, build the engine,
// attach the suggestion cache.
func buildEngine(wc synth.Config, ec pqsda.Config) (*synth.World, *core.Engine, error) {
	w := synth.Generate(wc)
	e, err := pqsda.NewEngine(w.Log, ec)
	if err != nil {
		return nil, nil, err
	}
	e.EnableCache(suggestCacheSize, 0)
	return w, e, nil
}

// newServer configures internal/server exactly as `cmd/pqsda -serve`
// does with default flags. The structured log and the TSV sink both
// format every line and write it to io.Discard: production pays the
// formatting, so the benchmark does too, but no terminal is involved.
// The caller must Close the server (it stops the SLO evaluation loop).
func newServer(e *core.Engine) (*server.Server, error) {
	srv := server.New(e, io.Discard)
	srv.SetRequestTimeout(requestTimeout)
	srv.SetBatchSolve(true)
	srv.SetSlowQueryThreshold(slowQuery)
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})))
	srv.SetMaxBodyBytes(server.DefaultMaxBodyBytes)
	if err := srv.SetBrownoutStrategy("relevance"); err != nil {
		return nil, err
	}
	srv.SetAdmission(admission.DefaultConfig())
	srv.EnableSLO(pqsda.DefaultSLOConfig())
	return srv, nil
}

// coldSetup builds world + engine + server once from nothing and
// returns how long that took. The server is closed again: set-up time
// is the cost a restart pays before the first request can be served.
func coldSetup(wc synth.Config, ec pqsda.Config) (*synth.World, *core.Engine, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	w, e, err := buildEngine(wc, ec)
	if err != nil {
		return nil, nil, 0, err
	}
	srv, err := newServer(e)
	if err != nil {
		return nil, nil, 0, err
	}
	srv.Handler()
	d := time.Since(t0)
	srv.Close()
	return w, e, d, nil
}

// setupStages times the set-up stages one by one through their public
// constructors, on a cleaned copy of the log as pqsda.NewEngine sees
// it. Traced runs only: it repeats work NewEngine has already done.
type setupStages struct {
	sessionize, bipartiteBuild, train time.Duration
}

func timeSetupStages(w *synth.World, ec pqsda.Config) setupStages {
	var st setupStages
	cleaned, _ := querylog.Clean(w.Log, querylog.CleanerConfig{})
	t0 := time.Now()
	sessions := querylog.Sessionize(cleaned, querylog.SessionizerConfig{})
	st.sessionize = time.Since(t0)

	t0 = time.Now()
	bipartite.BuildFromSessions(sessions, bipartite.CFIQF)
	st.bipartiteBuild = time.Since(t0)

	t0 = time.Now()
	corpus := topicmodel.BuildCorpus(sessions, nil)
	topicmodel.TrainUPM(corpus, topicmodel.UPMConfig{K: ec.Topics, Iterations: ec.TrainingIterations, Seed: ec.Seed})
	st.train = time.Since(t0)
	return st
}

// freshGeneration returns a clone of e whose generation is above every
// generation a previous pass used. Both engine caches (suggestion and
// compact) are shared by clones and keyed by generation, and the
// compact cache has no purge, so a pass that reused a generation number
// would find the previous pass's compacts. Cloning is a pointer copy.
func freshGeneration(e *core.Engine, above uint64) *core.Engine {
	for e.Generation() <= above {
		e = e.Clone()
	}
	return e
}

// queryPools splits the log's distinct queries into the head (the
// headSize most frequent, ties by name) and the tail (freq ≥ 2, ranked
// below the head). Both are computed from the generated log alone — the
// program under test is never consulted.
type queryPools struct {
	head, tail []string
}

func splitQueries(l *querylog.Log, headSize int) queryPools {
	freq := map[string]int{}
	for _, e := range l.Entries {
		freq[querylog.NormalizeQuery(e.Query)]++
	}
	all := make([]string, 0, len(freq))
	for q := range freq {
		if q != "" {
			all = append(all, q)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if freq[all[i]] != freq[all[j]] {
			return freq[all[i]] > freq[all[j]]
		}
		return all[i] < all[j]
	})
	if headSize > len(all) {
		headSize = len(all)
	}
	p := queryPools{head: all[:headSize]}
	for _, q := range all[headSize:] {
		if freq[q] >= 2 {
			p.tail = append(p.tail, q)
		}
	}
	return p
}
