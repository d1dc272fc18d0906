package experiments

import (
	"context"
	"time"

	"repro/internal/baselines"
	"repro/internal/bipartite"
	"repro/internal/clickgraph"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/querylog"
)

// diversificationMethods builds the Fig. 3 contenders on one weighting:
// the PQS-DA diversification stage plus the four click-graph baselines.
type divMethod struct {
	name    string
	suggest func(query string, k int) []string
}

func (s *Setup) diversificationMethods(wt bipartite.Weighting) ([]divMethod, error) {
	var g *clickgraph.Graph
	if wt == bipartite.Raw {
		g = s.GraphRaw
	} else {
		g = s.GraphWtd
	}
	engine, err := core.NewEngine(s.Log, core.Config{
		Weighting:           wt,
		Compact:             bipartite.CompactConfig{Budget: 80},
		SkipPersonalization: true,
	})
	if err != nil {
		return nil, err
	}
	now := time.Now()
	fromSuggester := func(sg baselines.Suggester) func(string, int) []string {
		return func(q string, k int) []string {
			sugs := sg.Suggest(q, k)
			out := make([]string, len(sugs))
			for i, sug := range sugs {
				out[i] = sug.Query
			}
			return out
		}
	}
	return []divMethod{
		{"PQS-DA", func(q string, k int) []string {
			res, err := engine.Do(context.Background(), core.SuggestRequest{Query: q, At: now, K: k, SkipPersonalization: true, NoCache: true})
			if err != nil {
				return nil
			}
			return res.Diversified
		}},
		{"FRW", fromSuggester(baselines.NewFRW(g, baselines.WalkConfig{}))},
		{"BRW", fromSuggester(baselines.NewBRW(g, baselines.WalkConfig{}))},
		{"HT", fromSuggester(baselines.NewHT(g, baselines.WalkConfig{}))},
		{"DQS", fromSuggester(baselines.NewDQS(g, baselines.WalkConfig{}))},
	}, nil
}

// Fig3Diversity regenerates Fig. 3(a) (raw) or 3(b) (weighted): mean
// diversity of the top-k suggestions of the diversification stage over
// the sampled test queries.
func (s *Setup) Fig3Diversity(wt bipartite.Weighting) (Figure, error) {
	methods, err := s.diversificationMethods(wt)
	if err != nil {
		return Figure{}, err
	}
	queries := s.SampleTestQueries(s.Scale.TestQueries, 101)
	pages, sim := s.PageSet(), s.PageSim()
	fig := Figure{
		ID:     map[bipartite.Weighting]string{bipartite.Raw: "3a", bipartite.CFIQF: "3b"}[wt],
		Title:  "Diversity of query suggestion after diversification (" + weightingName(wt) + ")",
		XLabel: "top-k",
		YLabel: "Diversity",
	}
	for _, m := range methods {
		acc := metrics.NewAccumulator(s.Scale.MaxK)
		for _, q := range queries {
			list := m.suggest(q, s.Scale.MaxK)
			if len(list) == 0 {
				continue
			}
			acc.Add(metrics.MeanDiversityAtK(list, pages, sim, s.Scale.MaxK))
		}
		fig.Series = append(fig.Series, Series{Name: m.name, Values: acc.Mean()})
	}
	return fig, nil
}

// Fig3Relevance regenerates Fig. 3(c) (raw) or 3(d) (weighted): mean
// ODP relevance (Eq. 34) of the top-k suggestions.
func (s *Setup) Fig3Relevance(wt bipartite.Weighting) (Figure, error) {
	methods, err := s.diversificationMethods(wt)
	if err != nil {
		return Figure{}, err
	}
	queries := s.SampleTestQueries(s.Scale.TestQueries, 101)
	cat := s.Categorizer()
	fig := Figure{
		ID:     map[bipartite.Weighting]string{bipartite.Raw: "3c", bipartite.CFIQF: "3d"}[wt],
		Title:  "Relevance of query suggestion after diversification (" + weightingName(wt) + ")",
		XLabel: "top-k",
		YLabel: "Relevance",
	}
	for _, m := range methods {
		acc := metrics.NewAccumulator(s.Scale.MaxK)
		for _, q := range queries {
			list := m.suggest(q, s.Scale.MaxK)
			if len(list) == 0 {
				continue
			}
			acc.Add(metrics.MeanRelevanceAtK(querylog.NormalizeQuery(q), list, cat, s.Scale.MaxK))
		}
		fig.Series = append(fig.Series, Series{Name: m.name, Values: acc.Mean()})
	}
	return fig, nil
}

func weightingName(wt bipartite.Weighting) string {
	if wt == bipartite.Raw {
		return "raw"
	}
	return "weighted"
}
