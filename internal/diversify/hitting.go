package diversify

import (
	"context"

	"repro/internal/hittingtime"
)

// hittingStrategy is the paper's Algorithm 1: greedy selection by
// largest truncated cross-bipartite hitting time to the already-
// selected set. It delegates to internal/hittingtime with exactly the
// arguments the pre-registry pipeline used, so the registry-backed
// default is bit-identical to the hard-wired stage it replaced (the
// parity test in internal/core pins this).
type hittingStrategy struct {
	cfg hittingtime.Config
}

func (h *hittingStrategy) Name() string { return Default }

func (h *hittingStrategy) Params() map[string]any {
	return map[string]any{
		"iterations": h.cfg.Iterations,
		"tolerance":  h.cfg.Tolerance,
		"crossView":  h.cfg.CrossView,
	}
}

func (h *hittingStrategy) Select(ctx context.Context, req Request) ([]int, error) {
	walker := hittingtime.WalkerFor(req.Compact, h.cfg)
	return walker.SelectDiverseCtx(ctx, req.First, req.K, req.Excluded, req.Pool)
}

// selectAll is Select for requests on one compact: they share its
// memoized walker, so the lanes go through Algorithm 1 together.
func (h *hittingStrategy) selectAll(ctx context.Context, reqs []Request) ([][]int, []error) {
	walker := hittingtime.WalkerFor(reqs[0].Compact, h.cfg)
	lanes := make([]hittingtime.Lane, len(reqs))
	for i, req := range reqs {
		lanes[i] = hittingtime.Lane{First: req.First, K: req.K, Excluded: req.Excluded, Pool: req.Pool}
	}
	return walker.SelectDiverseLanes(ctx, lanes)
}
