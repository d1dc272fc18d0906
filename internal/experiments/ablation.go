package experiments

import (
	"context"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/hittingtime"
	"repro/internal/metrics"
	"repro/internal/querylog"
	"repro/internal/regularize"
)

// This file holds the ablations DESIGN.md calls out beyond the paper's
// own figures: how much each bipartite view contributes, what the
// search context buys, and how the relevance-gate pool factor trades
// relevance for diversity.

// AblationViews compares the full multi-bipartite diversification with
// single-view variants (URL-only = click graph, session-only,
// term-only): mean top-1 relevance, relevance@10 and diversity@10 over
// the sampled test queries. It quantifies the paper's Section III
// claim that the three views together beat any one alone.
func (s *Setup) AblationViews() (Figure, error) {
	type variant struct {
		name  string
		alpha [bipartite.NumViews]float64
		cross [bipartite.NumViews]float64
	}
	variants := []variant{
		{"all-views", [3]float64{0.1, 0.1, 0.1}, [3]float64{1, 1, 1}},
		{"URL-only", [3]float64{0.3, 0, 0}, [3]float64{1, 0, 0}},
		{"session-only", [3]float64{0, 0.3, 0}, [3]float64{0, 1, 0}},
		{"term-only", [3]float64{0, 0, 0.3}, [3]float64{0, 0, 1}},
	}
	queries := s.SampleTestQueries(s.Scale.TestQueries, 102)
	pages, sim, cat := s.PageSet(), s.PageSim(), s.Categorizer()
	fig := Figure{
		ID:     "A1",
		Title:  "Ablation: contribution of the three bipartite views (top1-rel, rel@10, div@10)",
		XLabel: "variant",
		YLabel: "metric",
	}
	now := time.Now()
	for _, v := range variants {
		engine, err := core.NewEngine(s.Log, core.Config{
			Weighting:           bipartite.CFIQF,
			Compact:             bipartite.CompactConfig{Budget: 80},
			Regularize:          regularize.Config{Alpha: v.alpha, Mu: 2},
			Hitting:             hittingtime.Config{CrossView: v.cross},
			SkipPersonalization: true,
		})
		if err != nil {
			return Figure{}, err
		}
		accR := metrics.NewAccumulator(s.Scale.MaxK)
		accD := metrics.NewAccumulator(s.Scale.MaxK)
		for _, q := range queries {
			res, err := engine.Do(context.Background(), core.SuggestRequest{Query: q, At: now, K: s.Scale.MaxK, SkipPersonalization: true, NoCache: true})
			if err != nil || len(res.Diversified) == 0 {
				continue
			}
			accR.Add(metrics.MeanRelevanceAtK(querylog.NormalizeQuery(q), res.Diversified, cat, s.Scale.MaxK))
			accD.Add(metrics.MeanDiversityAtK(res.Diversified, pages, sim, s.Scale.MaxK))
		}
		r, d := accR.Mean(), accD.Mean()
		if r == nil {
			r = make([]float64, s.Scale.MaxK)
			d = make([]float64, s.Scale.MaxK)
		}
		fig.Series = append(fig.Series, Series{
			Name:   v.name,
			Values: []float64{r[0], r[s.Scale.MaxK-1], d[s.Scale.MaxK-1]},
		})
	}
	return fig, nil
}

// AblationContext measures what the Eq. 7 search context buys, in the
// paper's own motivating scenario: the input query is an AMBIGUOUS
// head term, the search context is a specific query from the same
// session, and success is alignment of the top suggestion with the
// session's ground-truth facet (the user's actual intent). Without
// context the engine can only follow the head's dominant sense.
func (s *Setup) AblationContext() (Figure, error) {
	engine, err := core.NewEngine(s.Log, core.Config{
		Weighting:           bipartite.CFIQF,
		Compact:             bipartite.CompactConfig{Budget: 80},
		SkipPersonalization: true,
	})
	if err != nil {
		return Figure{}, err
	}
	// Ambiguous head terms of the world.
	heads := make(map[string]bool)
	for _, fc := range s.World.Facets {
		for _, h := range fc.HeadTerms {
			heads[h] = true
		}
	}
	intentRel := func(sugg string, facet int) float64 {
		f := s.World.QueryFacet(querylog.NormalizeQuery(sugg))
		if f < 0 || facet < 0 {
			return 0
		}
		return s.World.FacetRelevance(f, facet)
	}
	withCtx := metrics.NewAccumulator(1)
	withoutCtx := metrics.NewAccumulator(1)
	cases := 0
	for _, sess := range s.Sessions {
		if len(sess.Entries) < 2 || cases >= 2*s.Scale.TestQueries {
			continue
		}
		// Sessions that OPEN with a bare ambiguous head term: the user
		// then refines (entry 1), and re-issuing the head with that
		// refinement as context should resolve toward the session facet.
		head := querylog.NormalizeQuery(sess.Entries[0].Query)
		if !heads[head] {
			continue
		}
		facet, ok := s.World.FacetOf(sess.Entries[0])
		if !ok {
			continue
		}
		at := sess.Entries[1].Time.Add(30 * time.Second)
		ctx := []querylog.Entry{sess.Entries[1]}
		r1, err1 := engine.Do(context.Background(), core.SuggestRequest{Query: head, Context: ctx, At: at, K: 1, SkipPersonalization: true, NoCache: true})
		r2, err2 := engine.Do(context.Background(), core.SuggestRequest{Query: head, At: at, K: 1, SkipPersonalization: true, NoCache: true})
		if err1 != nil || err2 != nil || len(r1.Diversified) == 0 || len(r2.Diversified) == 0 {
			continue
		}
		withCtx.Add([]float64{intentRel(r1.Diversified[0], facet)})
		withoutCtx.Add([]float64{intentRel(r2.Diversified[0], facet)})
		cases++
	}
	fig := Figure{
		ID:     "A2",
		Title:  "Ablation: Eq. 7 search context resolving ambiguous inputs (top-1 intent alignment)",
		XLabel: "variant",
		YLabel: "top-1 intent relevance",
	}
	fig.Series = append(fig.Series,
		Series{Name: "with-context", Values: withCtx.Mean()},
		Series{Name: "no-context", Values: withoutCtx.Mean()},
	)
	return fig, nil
}

// AblationPool sweeps the relevance-gate pool factor, reporting
// (rel@10, div@10) per setting — the diversity/relevance dial of the
// reproduction (see DESIGN.md §5).
func (s *Setup) AblationPool() (Figure, error) {
	queries := s.SampleTestQueries(s.Scale.TestQueries, 104)
	pages, sim, cat := s.PageSet(), s.PageSim(), s.Categorizer()
	fig := Figure{
		ID:     "A3",
		Title:  "Ablation: relevance-gate pool factor (rel@10, div@10)",
		XLabel: "pool-factor",
		YLabel: "metric",
	}
	now := time.Now()
	for _, pf := range []int{2, 3, 5, 8} {
		engine, err := core.NewEngine(s.Log, core.Config{
			Weighting:           bipartite.CFIQF,
			Compact:             bipartite.CompactConfig{Budget: 80},
			SkipPersonalization: true,
			PoolFactor:          pf,
		})
		if err != nil {
			return Figure{}, err
		}
		accR := metrics.NewAccumulator(s.Scale.MaxK)
		accD := metrics.NewAccumulator(s.Scale.MaxK)
		for _, q := range queries {
			res, err := engine.Do(context.Background(), core.SuggestRequest{Query: q, At: now, K: s.Scale.MaxK, SkipPersonalization: true, NoCache: true})
			if err != nil || len(res.Diversified) == 0 {
				continue
			}
			accR.Add(metrics.MeanRelevanceAtK(querylog.NormalizeQuery(q), res.Diversified, cat, s.Scale.MaxK))
			accD.Add(metrics.MeanDiversityAtK(res.Diversified, pages, sim, s.Scale.MaxK))
		}
		r, d := accR.Mean(), accD.Mean()
		fig.Series = append(fig.Series, Series{
			Name:   "pf=" + itoa(pf),
			Values: []float64{r[s.Scale.MaxK-1], d[s.Scale.MaxK-1]},
		})
	}
	return fig, nil
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	if neg {
		p--
		buf[p] = '-'
	}
	return string(buf[p:])
}
