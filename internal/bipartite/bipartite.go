// Package bipartite implements the paper's multi-bipartite query-log
// representation (Section III): three bipartite graphs sharing one query
// node space — query–URL, query–session and query–term — with edges
// weighted either by raw co-occurrence frequency or by the paper's
// cf·iqf scheme (Eqs. 1–6). It also builds the compact representation
// the diversification component runs on (Section IV-A).
package bipartite

import (
	"math"
	"sync"

	"repro/internal/querylog"
	"repro/internal/sparse"
)

// View identifies one of the three bipartites; the paper's X ∈ {U, S, T}.
type View int

const (
	ViewURL View = iota
	ViewSession
	ViewTerm
	NumViews = 3
)

// String names the view for diagnostics.
func (v View) String() string {
	switch v {
	case ViewURL:
		return "URL"
	case ViewSession:
		return "session"
	case ViewTerm:
		return "term"
	}
	return "unknown"
}

// Weighting selects between raw frequencies and the cf·iqf scheme.
type Weighting int

const (
	// Raw uses plain co-occurrence counts c_ij.
	Raw Weighting = iota
	// CFIQF multiplies counts by the inverse query frequency of the
	// object (Eqs. 4–6).
	CFIQF
)

// Representation is the multi-bipartite query-log representation. W[v]
// is the queries × objects weight matrix of view v; the query node space
// is shared across views.
type Representation struct {
	Queries  *Index
	Objects  [NumViews]*Index
	W        [NumViews]*sparse.Matrix
	Sessions []querylog.Session
	// Weighting records how W was weighted.
	Weighting Weighting

	// walkWT memoizes walkFactors, the per-view factors every
	// BuildCompact call walks over; walkOnce makes the lazy computation
	// safe under concurrent suggestion serving.
	walkOnce sync.Once
	walkWT   [NumViews]sparse.CSRView

	// wT memoizes WTransposed per view (object→query adjacency), used on
	// the unknown-query fallback path of every cold request.
	wTOnce [NumViews]sync.Once
	wT     [NumViews]*sparse.Matrix
}

// Build constructs the full multi-bipartite representation from a log.
// The log is sessionized with cfg (pass the zero value for defaults).
func Build(l *querylog.Log, scfg querylog.SessionizerConfig, wt Weighting) *Representation {
	sessions := querylog.Sessionize(l, scfg)
	return BuildFromSessions(sessions, wt)
}

// BuildFromSessions constructs the representation from pre-segmented
// sessions (useful when the caller needs the same segmentation
// elsewhere). It is the full-rebuild path: the mergeable builder counts
// every session from scratch and the result is materialized once (see
// builder.go; the incremental path shares the same counting and
// weighting code, which is what makes delta builds bit-identical).
func BuildFromSessions(sessions []querylog.Session, wt Weighting) *Representation {
	r := StateFromSessions(sessions).Materialize(wt)
	r.Sessions = sessions
	return r
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [20]byte
	p := len(buf)
	for i > 0 {
		p--
		buf[p] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[p:])
}

// IQF returns the inverse query frequency of object o in view v
// (Eqs. 1–3), computed from the stored matrices: n(o) is the number of
// distinct queries with a stored edge to o.
func (r *Representation) IQF(v View, o int) float64 {
	n := 0
	wT := r.W[v].Transpose()
	wT.Row(o, func(c int, val float64) { n++ })
	if n == 0 {
		return 0
	}
	return math.Log(float64(r.Queries.Len()) / float64(n))
}

// NumQueries returns the size of the query node space.
func (r *Representation) NumQueries() int { return r.Queries.Len() }

// QueryID resolves a raw query string (normalized internally) to its
// node ID.
func (r *Representation) QueryID(rawQuery string) (int, bool) {
	return r.Queries.Lookup(querylog.NormalizeQuery(rawQuery))
}

// WTransposed returns the object→query adjacency W[v]ᵀ, computed once
// and memoized (the representation is immutable after Build); callers
// must not mutate it. A new Representation — every Refresh builds one —
// starts with an empty cache, so staleness is impossible.
func (r *Representation) WTransposed(v View) *sparse.Matrix {
	r.wTOnce[v].Do(func() {
		r.wT[v] = r.W[v].Transpose()
	})
	return r.wT[v]
}

// ClickedURLs returns the URL names clicked for query node q, with their
// stored weights.
func (r *Representation) ClickedURLs(q int) map[string]float64 {
	out := make(map[string]float64)
	r.W[ViewURL].Row(q, func(o int, v float64) {
		out[r.Objects[ViewURL].Name(o)] = v
	})
	return out
}
