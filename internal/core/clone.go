package core

import (
	"errors"

	"repro/internal/querylog"
)

// Clone returns an engine that serves identically to e but shares no
// mutable state with it. With the immutable-snapshot store this is
// cheap: the clone copies the snapshot pointer (the snapshot itself is
// never mutated after publication) and the sealed-segment list header —
// no log deep copy, no UPM deep copy. Mutators on either engine derive
// NEW snapshots and so cannot disturb the other.
//
// Clone is the foundation of non-blocking refresh: mutate the clone
// (Ingest, Refresh, LearnUser) off the serving path, then atomically
// swap it in. The original keeps serving Do throughout.
//
// The clone's snapshot gets the NEXT generation number and shares the
// suggestion cache: once the clone is swapped in, cache entries
// computed against the original stop being addressable (their keys
// carry the old generation) and age out of the LRU — swap-time
// invalidation without a flush. Swap sequences are serialized by the
// caller (the server's swapMu), so generations are strictly increasing
// along the chain of serving engines.
func (e *Engine) Clone() *Engine {
	out := &Engine{
		cfg:    e.cfg,
		segs:   e.segs.Clone(),
		hasLog: e.hasLog,
		cache:  e.cache,
		// Compacts are shared like the suggestion cache: keys embed
		// the generation, so the clone's bumped generation invalidates
		// without a flush.
		compacts: e.compacts,
		dirty:    e.dirty,
		// The strategy table is read-only while serving, so clones
		// share it (including AddDiversifier extras).
		strategies:      e.strategies,
		defaultStrategy: e.defaultStrategy,
	}
	out.dirtyClamps.Store(e.dirtyClamps.Load())
	prev := e.snap.Load()
	next := *prev
	next.Generation = prev.Generation + 1
	out.snap.Store(&next)
	return out
}

// CanRefresh reports whether Refresh(mode) can succeed on this engine,
// without mutating anything — callers should check it BEFORE ingesting
// entries so a rejected refresh leaves no half-applied state behind.
func (e *Engine) CanRefresh(mode RefreshMode) error {
	if !e.hasLog {
		return errors.New("core: engine has no log (loaded from a snapshot); refresh unsupported")
	}
	if mode != RebuildGraphs && e.snap.Load().Profiles == nil {
		return errors.New("core: engine has no profiles to refresh")
	}
	return nil
}

// Rebuild is the hot-swap refresh: it validates the mode, clones the
// engine, ingests the fresh entries into the clone and refreshes it
// with the engine's configured build strategy, returning the rebuilt
// engine. The receiver is never mutated and remains fully servable
// while Rebuild runs — swap the returned engine in (e.g. via
// atomic.Pointer) once it is ready.
func (e *Engine) Rebuild(entries []querylog.Entry, mode RefreshMode) (*Engine, error) {
	return e.RebuildWith(entries, mode, e.cfg.Strategy)
}

// RebuildWith is Rebuild with an explicit build strategy, overriding
// the configured default (the server's per-request "build" override).
func (e *Engine) RebuildWith(entries []querylog.Entry, mode RefreshMode, strategy RefreshStrategy) (*Engine, error) {
	if err := e.CanRefresh(mode); err != nil {
		return nil, err
	}
	next := e.Clone()
	next.Ingest(entries)
	if err := next.RefreshWith(mode, strategy); err != nil {
		return nil, err
	}
	return next, nil
}
