package core

import (
	stdcontext "context"
	"time"

	"repro/internal/hittingtime"
	"repro/internal/profile"
	"repro/internal/querylog"
	"repro/internal/regularize"
)

// Explanation breaks a suggestion run down per candidate: where each
// suggested query ranked in every stage and why the final order came
// out as it did.
type Explanation struct {
	Query string
	// Candidates are in final (personalized when available) order.
	Candidates []CandidateExplanation
	// CompactSize is the working-set size used.
	CompactSize int
}

// CandidateExplanation is one suggested query's stage-by-stage story.
type CandidateExplanation struct {
	Suggestion string
	// Relevance is the Eq. 15 regularization score F*.
	Relevance float64
	// DiversityRank is the position in the diversification ranking
	// (0 = the Eq. 15 first candidate, then hitting-time order).
	DiversityRank int
	// HittingTime is the truncated hitting time to the already-selected
	// set at the moment this candidate was picked (0 for the first).
	HittingTime float64
	// Preference is the user's Eq. 31 score (0 without profiles).
	Preference float64
	// BordaPoints is the aggregate score deciding the final order.
	BordaPoints int
}

// Explain runs the full pipeline like Do but returns the
// per-candidate diagnostics alongside the ranking. It costs one extra
// hitting-time evaluation per candidate.
func (e *Engine) Explain(userID, query string, context []querylog.Entry, at time.Time, k int) (Explanation, error) {
	var ex Explanation
	ex.Query = query
	// Pin one snapshot for the whole explanation so the re-run and the
	// diagnostics below cannot straddle a concurrent hot-swap. Explain
	// always narrates the engine's default strategy — its diagnostics
	// (hitting time at pick) are the paper's Algorithm-1 story.
	name, div, err := e.resolveStrategy("")
	if err != nil {
		return ex, err
	}
	snap := e.snap.Load()
	res, err := e.suggestDiversifiedOn(stdcontext.Background(), snap, div, name, query, context, at, k)
	if err != nil {
		return ex, err
	}
	ex.CompactSize = res.CompactSize

	// Recompute the stage internals for the diagnostics through the same
	// seed classification the run above used.
	seeds, seedTimes, nInput := resolveSeeds(snap.Rep, query, context, at)
	compact, _ := e.compactFor(snap, seeds)
	seedLocals, f0, ok := seedVector(compact, seeds, seedTimes, nInput, e.cfg.Regularize.Lambda)
	if !ok {
		return ex, ErrUnknownQuery
	}
	reg, err := regularize.FirstCandidate(compact, f0, seedLocals, e.cfg.Regularize)
	if err != nil {
		return ex, err
	}
	walker := hittingtime.WalkerFor(compact, e.cfg.Hitting)

	// Hitting time of each candidate to the set selected before it.
	localOf := make(map[string]int, compact.Size())
	for i := 0; i < compact.Size(); i++ {
		localOf[compact.QueryName(i)] = i
	}
	htAtPick := make(map[string]float64, len(res.Diversified))
	divRank := make(map[string]int, len(res.Diversified))
	sel := map[int]bool{}
	for rank, name := range res.Diversified {
		divRank[name] = rank
		local, ok := localOf[name]
		if !ok {
			continue
		}
		if rank > 0 {
			h := walker.HittingTime(sel)
			htAtPick[name] = h[local]
		}
		sel[local] = true
	}

	final := res.Diversified
	prefScore := map[string]float64{}
	borda := map[string]int{}
	if snap.Profiles != nil && snap.Profiles.Theta(userID) != nil {
		for _, name := range res.Diversified {
			prefScore[name] = snap.Profiles.PreferenceScore(userID, name, e.cfg.ScoreMode)
		}
		prefRank := snap.Profiles.RankByPreference(userID, res.Diversified, e.cfg.ScoreMode)
		final = profile.BordaAggregate(res.Diversified, prefRank)
		n := len(res.Diversified)
		for pos, name := range res.Diversified {
			borda[name] += n - pos
		}
		for pos, name := range prefRank {
			borda[name] += n - pos
		}
	}

	for _, name := range final {
		ce := CandidateExplanation{
			Suggestion:    name,
			DiversityRank: divRank[name],
			HittingTime:   htAtPick[name],
			Preference:    prefScore[name],
			BordaPoints:   borda[name],
		}
		if local, ok := localOf[name]; ok {
			ce.Relevance = reg.F[local]
		}
		ex.Candidates = append(ex.Candidates, ce)
	}
	return ex, nil
}
