package experiments

import (
	"context"
	"time"

	"repro/internal/baselines"
	"repro/internal/bipartite"
	"repro/internal/clickgraph"
	"repro/internal/core"
	"repro/internal/querylog"
	"repro/internal/synth"
)

// Fig7Efficiency regenerates Fig. 7: mean per-suggestion latency of
// PQS-DA, DQS, HT, FRW and CM as the number of utilized queries grows.
// Larger query sets come from generating larger worlds; PQS-DA's
// compact budget grows proportionally, mirroring how the paper scales
// the utilized-query count. Values are reported relative to the
// fastest method at the smallest size (the paper reports relative
// consumed time).
func (s *Setup) Fig7Efficiency() (Figure, error) {
	sizes := []int{1, 2, 4, 8} // world-size multipliers
	methodNames := []string{"PQS-DA", "DQS", "HT", "FRW", "CM"}
	values := make(map[string][]float64, len(methodNames))

	for _, mult := range sizes {
		wcfg := s.Scale.World
		wcfg.NumUsers *= mult
		w := synth.Generate(wcfg)
		clean, _ := querylog.Clean(w.Log, querylog.CleanerConfig{})
		g := clickgraph.Build(clean, bipartite.CFIQF)
		engine, err := core.NewEngine(clean, core.Config{
			Weighting:           bipartite.CFIQF,
			Compact:             bipartite.CompactConfig{Budget: 40 * mult},
			SkipPersonalization: true,
		})
		if err != nil {
			return Figure{}, err
		}
		frw := baselines.NewFRW(g, baselines.WalkConfig{})
		ht := baselines.NewHT(g, baselines.WalkConfig{})
		dqs := baselines.NewDQS(g, baselines.WalkConfig{})
		cm := baselines.NewCM(g, clean)

		sub := &Setup{Scale: s.Scale, World: w, Log: clean, GraphRaw: g, GraphWtd: g}
		queries := sub.SampleTestQueries(10, 103)
		now := time.Now()
		run := map[string]func(string){
			"PQS-DA": func(q string) {
				_, _ = engine.Do(context.Background(), core.SuggestRequest{Query: q, At: now, K: s.Scale.MaxK, SkipPersonalization: true, NoCache: true})
			},
			"DQS": func(q string) { dqs.Suggest(q, s.Scale.MaxK) },
			"HT":  func(q string) { ht.Suggest(q, s.Scale.MaxK) },
			"FRW": func(q string) { frw.Suggest(q, s.Scale.MaxK) },
			"CM":  func(q string) { cm.SuggestFor("u0000", q, s.Scale.MaxK) },
		}
		for _, name := range methodNames {
			start := time.Now()
			for _, q := range queries {
				run[name](q)
			}
			perQuery := time.Since(start).Seconds() / float64(len(queries))
			values[name] = append(values[name], perQuery)
		}
	}

	// Normalize to the fastest method at the smallest size.
	base := values[methodNames[0]][0]
	for _, name := range methodNames {
		if values[name][0] < base {
			base = values[name][0]
		}
	}
	if base <= 0 {
		base = 1e-9
	}
	fig := Figure{
		ID:     "7",
		Title:  "Relative suggestion latency vs number of utilized queries",
		XLabel: "size-step",
		YLabel: "Relative time",
	}
	for _, name := range methodNames {
		rel := make([]float64, len(values[name]))
		for i, v := range values[name] {
			rel[i] = v / base
		}
		fig.Series = append(fig.Series, Series{Name: name, Values: rel})
	}
	return fig, nil
}
