package experiments

import (
	"context"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/querylog"
)

// AblationSessionizer compares session-segmentation policies (the
// paper's references [24][25]) by their downstream effect on the
// diversification stage: a pure 30-minute-timeout splitter vs. the
// context-aware splitter with the lexical-similarity rescue used
// throughout this reproduction. Reported per variant: number of
// sessions produced, top-1 relevance and relevance@10.
func (s *Setup) AblationSessionizer() (Figure, error) {
	variants := []struct {
		name string
		cfg  querylog.SessionizerConfig
	}{
		// Similarity rescue disabled: any gap over the soft timeout
		// splits, regardless of lexical overlap.
		{"time-only", querylog.SessionizerConfig{
			Timeout: 30 * time.Minute, SoftTimeout: 30 * time.Minute, MinSimilarity: 0.2,
		}},
		{"context-aware", querylog.SessionizerConfig{}},
	}
	queries := s.SampleTestQueries(s.Scale.TestQueries, 105)
	cat := s.Categorizer()
	fig := Figure{
		ID:     "A4",
		Title:  "Ablation: session segmentation policy (sessions/1000, top1-rel, rel@10)",
		XLabel: "variant",
		YLabel: "metric",
	}
	now := time.Now()
	for _, v := range variants {
		engine, err := core.NewEngine(s.Log, core.Config{
			Weighting:           bipartite.CFIQF,
			Sessionizer:         v.cfg,
			Compact:             bipartite.CompactConfig{Budget: 80},
			SkipPersonalization: true,
		})
		if err != nil {
			return Figure{}, err
		}
		acc := metrics.NewAccumulator(s.Scale.MaxK)
		for _, q := range queries {
			res, err := engine.Do(context.Background(), core.SuggestRequest{Query: q, At: now, K: s.Scale.MaxK, SkipPersonalization: true, NoCache: true})
			if err != nil || len(res.Diversified) == 0 {
				continue
			}
			acc.Add(metrics.MeanRelevanceAtK(querylog.NormalizeQuery(q), res.Diversified, cat, s.Scale.MaxK))
		}
		r := acc.Mean()
		if r == nil {
			r = make([]float64, s.Scale.MaxK)
		}
		fig.Series = append(fig.Series, Series{
			Name:   v.name,
			Values: []float64{float64(len(engine.Sessions())) / 1000, r[0], r[s.Scale.MaxK-1]},
		})
	}
	return fig, nil
}
