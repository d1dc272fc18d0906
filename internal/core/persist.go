package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/querylog"
	"repro/internal/snapshot"
	"repro/internal/snapwire"
)

// Engine persistence rides on the snapwire format (internal/snapwire):
// a sectioned, checksummed binary image in which every hot serving
// array is stored exactly as it is read, so loading is validation plus
// slice aliasing instead of per-element decoding. The raw log and the
// delta-build counting state are deliberately NOT persisted (they are
// only inputs to the build; the paper's design point is that the stored
// profiles are a concise summary of them), so a loaded engine serves
// but cannot Refresh — disk-loaded snapshots full-rebuild on refresh
// by reconstructing the engine from a log instead.

// wireImage is one encoded snapshot image, keyed by the snapshot
// pointer it was built from. Pointer identity is strictly finer than
// the generation counter: LearnUser republishes a changed snapshot
// under the same generation, and a generation-keyed cache would keep
// serving the pre-fold image.
type wireImage struct {
	snap *snapshot.Snapshot
	buf  []byte
}

// WireImage returns the engine's current serving snapshot encoded as a
// snapwire image, caching the encoding per snapshot so repeated
// /v1/snapshot downloads of an unchanged engine cost one encode.
func (e *Engine) WireImage() ([]byte, error) {
	snap := e.snap.Load()
	if c := e.wireImg.Load(); c != nil && c.snap == snap {
		return c.buf, nil
	}
	buf, err := e.encodeSnapshot(snap)
	if err != nil {
		return nil, err
	}
	e.wireImg.Store(&wireImage{snap: snap, buf: buf})
	return buf, nil
}

func (e *Engine) encodeSnapshot(snap *snapshot.Snapshot) ([]byte, error) {
	cfgJSON, err := json.Marshal(e.cfg)
	if err != nil {
		return nil, fmt.Errorf("core: encoding config: %w", err)
	}
	src := &snapwire.Source{
		Config:   cfgJSON,
		Rep:      snap.Rep,
		Symbols:  snap.Symbols,
		Sessions: snap.Sessions,
		Meta: snapwire.Meta{
			NumSessions: snap.Stats.NumSessions,
			LogEntries:  snap.Stats.LogEntries,
			BuiltAtNano: snap.Stats.BuiltAt.UnixNano(),
		},
	}
	if snap.Profiles != nil {
		src.UPM = snap.Profiles.UPM()
		src.Words = snap.Corpus.Words
	}
	img, err := snapwire.Encode(src)
	if err != nil {
		return nil, fmt.Errorf("core: encoding engine: %w", err)
	}
	return img, nil
}

// Save serializes the engine to w in the snapwire format. A loaded
// engine serves Do/Personalize identically to the original; the
// raw log is not persisted, so the loaded copy cannot Refresh.
func (e *Engine) Save(w io.Writer) error {
	img, err := e.WireImage()
	if err != nil {
		return err
	}
	_, err = w.Write(img)
	return err
}

// LoadEngine deserializes an engine previously written by Save. Any
// other input is rejected with an error wrapping snapwire.ErrFormat.
func LoadEngine(r io.Reader) (*Engine, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: loading engine: %w", err)
	}
	l, err := snapwire.Load(buf)
	if err != nil {
		return nil, fmt.Errorf("core: loading engine: %w", err)
	}
	return engineFromLoaded(l)
}

// LoadEngineFile loads an engine image from disk. On linux the image
// is mmap'd read-only and the serving arrays alias the mapping (no
// heap copy of the file, nothing for the GC to scan); elsewhere — or
// when mmap fails — it falls back to a heap read. Inspect the result
// of Mapped() on the returned engine's stats for which path was taken.
func LoadEngineFile(path string) (*Engine, error) {
	l, err := snapwire.LoadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: loading engine: %w", err)
	}
	return engineFromLoaded(l)
}

func engineFromLoaded(l *snapwire.Loaded) (*Engine, error) {
	var cfg Config
	if l.Config != nil {
		if err := json.Unmarshal(l.Config, &cfg); err != nil {
			return nil, fmt.Errorf("core: engine file config: %w", err)
		}
	}
	e := &Engine{cfg: cfg, segs: &querylog.SegmentList{}, compacts: newCompactCache(cfg.CompactCache)}
	if err := e.initStrategies(); err != nil {
		return nil, err
	}
	e.loaded = loadedInfo{Present: true, Mapped: l.Mapped, Size: l.Size, Version: l.Version, Sections: l.Sections}
	// Seed the image cache with the bytes we just loaded: Save and
	// GET /v1/snapshot on an unmutated loaded engine return the original
	// image verbatim (sessions included — the serving snapshot decodes
	// them lazily, so a fresh encode could not reproduce them).
	e.wireImg.Store(&wireImage{snap: l.Snap, buf: l.Image})
	e.snap.Store(l.Snap)
	return e, nil
}

// loadedInfo describes the wire image an engine was loaded from, for
// /v1/stats and the snapshot gauges. Zero for engines built from a log.
type loadedInfo struct {
	Present  bool
	Mapped   bool
	Size     int64
	Version  uint16
	Sections []snapwire.Section
}

// LoadedImage reports the wire image this engine was deserialized
// from; Present is false for engines built from a raw log.
func (e *Engine) LoadedImage() loadedInfo { return e.loaded }

// AdoptSnapshot swaps an externally loaded serving snapshot into a
// running engine (the POST /v1/snapshot path). The adopted snapshot is
// stamped with the NEXT generation so every generation-keyed cache
// (suggestions, compacts) invalidates; the engine's raw log — if it
// had one — no longer describes the serving state, so refresh support
// is dropped. The engine keeps its own Config: strategies and tunables
// were built at construction and the image's embedded config is only
// used when constructing a fresh engine via LoadEngine. Callers must
// serialize AdoptSnapshot with other mutators (the server does so
// under its swap lock).
func (e *Engine) AdoptSnapshot(l *snapwire.Loaded) error {
	if l == nil || l.Snap == nil {
		return fmt.Errorf("core: adopt: nil snapshot")
	}
	prev := e.snap.Load()
	l.Snap.Generation = prev.Generation + 1
	e.hasLog = false
	e.loaded = loadedInfo{Present: true, Mapped: l.Mapped, Size: l.Size, Version: l.Version, Sections: l.Sections}
	e.wireImg.Store(&wireImage{snap: l.Snap, buf: l.Image})
	e.snap.Store(l.Snap)
	return nil
}
