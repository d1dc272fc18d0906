// Evaluation: a miniature version of the paper's Section VI — compare
// PQS-DA's diversification stage against the HT and DQS baselines on
// Diversity (Eq. 32–33) and ODP Relevance (Eq. 34) over sampled test
// queries, using the synthetic world's ground-truth oracles.
//
//	go run ./examples/evaluation
package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/bipartite"
	"repro/internal/clickgraph"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/odp"
	"repro/internal/querylog"
	"repro/internal/synth"
)

func main() {
	world := synth.Generate(synth.Config{
		Seed: 13, NumUsers: 25, SessionsPerUser: 30, NumFacets: 6,
		ClickProb: 0.4, NoiseClickProb: 0.15, URLsPerFacet: 50,
	})
	clean, stats := querylog.Clean(world.Log, querylog.CleanerConfig{})
	fmt.Printf("log: %d entries after cleaning (%d kept / %d short / %d long dropped)\n\n",
		clean.Len(), stats.Kept, stats.DroppedShort, stats.DroppedLong)

	graph := clickgraph.Build(clean, bipartite.CFIQF)
	engine, err := core.NewEngine(clean, core.Config{
		Weighting:           bipartite.CFIQF,
		Compact:             bipartite.CompactConfig{Budget: 80},
		SkipPersonalization: true,
	})
	if err != nil {
		panic(err)
	}
	ht := baselines.NewHT(graph, baselines.WalkConfig{})
	dqs := baselines.NewDQS(graph, baselines.WalkConfig{})

	// Oracles from the world's ground truth.
	pages := func(q string) map[string]float64 {
		id, ok := graph.QueryID(q)
		if !ok {
			return nil
		}
		return graph.ClickedURLs(id)
	}
	cat := func(q string) odp.Category { return world.QueryCategory(querylog.NormalizeQuery(q)) }

	// Frequent connected queries as test inputs.
	var tests []string
	freq := clean.QueryFrequency()
	tr := graph.QueryTransition()
	for q, f := range freq {
		if f < 3 {
			continue
		}
		if id, ok := graph.QueryID(q); ok && tr.RowNNZ(id) > 2 {
			tests = append(tests, q)
		}
		if len(tests) == 15 {
			break
		}
	}

	const k = 10
	methods := []struct {
		name    string
		suggest func(q string) []string
	}{
		{"PQS-DA", func(q string) []string {
			res, err := engine.Do(context.Background(), core.SuggestRequest{Query: q, At: time.Now(), K: k, SkipPersonalization: true, NoCache: true})
			if err != nil {
				return nil
			}
			return res.Diversified
		}},
		{"HT", func(q string) []string { return names(ht.Suggest(q, k)) }},
		{"DQS", func(q string) []string { return names(dqs.Suggest(q, k)) }},
	}

	fmt.Printf("%-8s %12s %12s %12s\n", "method", "diversity@10", "relevance@1", "relevance@10")
	for _, m := range methods {
		accD := metrics.NewAccumulator(k)
		accR := metrics.NewAccumulator(k)
		for _, q := range tests {
			list := m.suggest(q)
			if len(list) == 0 {
				continue
			}
			accD.Add(metrics.MeanDiversityAtK(list, pages, world.PageSim, k))
			accR.Add(metrics.MeanRelevanceAtK(querylog.NormalizeQuery(q), list, cat, k))
		}
		d, r := accD.Mean(), accR.Mean()
		fmt.Printf("%-8s %12.3f %12.3f %12.3f\n", m.name, d[k-1], r[0], r[k-1])
	}
	fmt.Println("\nexpected shape: PQS-DA pairs DQS-class diversity with near-HT relevance;")
	fmt.Println("HT is relevant but barely diverse; DQS is diverse but drifts off-topic.")
}

func names(s []baselines.Suggestion) []string {
	out := make([]string, len(s))
	for i, sg := range s {
		out[i] = sg.Query
	}
	return out
}
