package experiments

import (
	"context"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/querylog"
)

// The paper's "significantly outperforms" language, made precise: over
// paired per-query scores, PQS-DA's relevance advantage over DQS (the
// other diversifier) is statistically significant by the paired
// bootstrap.
func TestPQSDABeatsDQSRelevanceSignificantly(t *testing.T) {
	s := setup(t)
	engine, err := core.NewEngine(s.Log, core.Config{
		Weighting:           bipartite.CFIQF,
		Compact:             bipartite.CompactConfig{Budget: 80},
		SkipPersonalization: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dqs := baselines.NewDQS(s.GraphWtd, baselines.WalkConfig{})
	cat := s.Categorizer()
	now := time.Now()

	var pqsScores, dqsScores []float64
	for _, q := range s.SampleTestQueries(30, 107) {
		res, err := engine.Do(context.Background(), core.SuggestRequest{Query: q, At: now, K: s.Scale.MaxK, SkipPersonalization: true, NoCache: true})
		if err != nil || len(res.Diversified) == 0 {
			continue
		}
		ds := dqs.Suggest(q, s.Scale.MaxK)
		if len(ds) == 0 {
			continue
		}
		dlist := make([]string, len(ds))
		for i, sg := range ds {
			dlist[i] = sg.Query
		}
		in := querylog.NormalizeQuery(q)
		pqsScores = append(pqsScores,
			metrics.MeanRelevanceAtK(in, res.Diversified, cat, s.Scale.MaxK)[s.Scale.MaxK-1])
		dqsScores = append(dqsScores,
			metrics.MeanRelevanceAtK(in, dlist, cat, s.Scale.MaxK)[s.Scale.MaxK-1])
	}
	if len(pqsScores) < 10 {
		t.Skip("too few paired cases")
	}
	p := metrics.PairedBootstrapPValue(pqsScores, dqsScores, 2000, 11)
	if p > 0.05 {
		t.Errorf("PQS-DA vs DQS relevance: p = %v over %d paired queries, want ≤ 0.05", p, len(pqsScores))
	}
	// And report the CI of the advantage for the record.
	diffs := make([]float64, len(pqsScores))
	for i := range diffs {
		diffs[i] = pqsScores[i] - dqsScores[i]
	}
	lo, mean, hi := metrics.BootstrapCI(diffs, 1000, 0.95, 12)
	t.Logf("relevance advantage over DQS: %.3f [%.3f, %.3f] over %d queries", mean, lo, hi, len(diffs))
}
