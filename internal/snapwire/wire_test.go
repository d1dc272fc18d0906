package snapwire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/querylog"
	"repro/internal/snapshot"
	"repro/internal/snapwire"
	"repro/internal/synth"
	"repro/internal/topicmodel"
)

// buildWorld constructs a full serving state the way core.NewEngine
// does — synthetic log, CF-IQF representation, trained UPM — without
// importing core (snapwire must stay below it in the dependency graph).
func buildWorld(t testing.TB) (*snapwire.Source, []querylog.Session) {
	t.Helper()
	return buildWorldSized(t, 10, 12)
}

// buildWorldSized is buildWorld with a controllable user/session count,
// for the load benchmarks that compare allocation behavior across
// world sizes.
func buildWorldSized(t testing.TB, users, sessionsPerUser int) (*snapwire.Source, []querylog.Session) {
	t.Helper()
	w := synth.Generate(synth.Config{Seed: 51, NumFacets: 6, NumUsers: users, SessionsPerUser: sessionsPerUser})
	sessions := querylog.Sessionize(w.Log, querylog.SessionizerConfig{})
	b := snapshot.Builder{Weighting: bipartite.CFIQF}
	snap := b.FromSessions(sessions, w.Log.Len(), 1)
	corpus := topicmodel.BuildCorpus(sessions, nil)
	upm := topicmodel.TrainUPM(corpus, topicmodel.UPMConfig{K: 5, Iterations: 15, Seed: 1, HyperRounds: 1, HyperIters: 3})
	src := &snapwire.Source{
		Config:   []byte(`{"budget":60}`),
		Rep:      snap.Rep,
		Symbols:  snap.Symbols,
		UPM:      upm,
		Words:    corpus.Words,
		Sessions: sessions,
		Meta:     snapwire.Meta{LogEntries: w.Log.Len(), BuiltAtNano: 1234567890},
	}
	return src, sessions
}

func encodeWorld(t testing.TB) ([]byte, *snapwire.Source, []querylog.Session) {
	t.Helper()
	src, sessions := buildWorld(t)
	buf, err := snapwire.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	return buf, src, sessions
}

func sameF64(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("%s[%d]: %g vs %g", what, i, a[i], b[i])
		}
	}
}

func assertIndexEqual(t *testing.T, what string, a, b *bipartite.Index) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: %d names vs %d", what, a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.Name(i) != b.Name(i) {
			t.Fatalf("%s: name %d %q vs %q", what, i, a.Name(i), b.Name(i))
		}
		if id, ok := b.Lookup(a.Name(i)); !ok || id != i {
			t.Fatalf("%s: lookup %q = (%d,%v), want (%d,true)", what, a.Name(i), id, ok, i)
		}
	}
}

func assertLoadedMatches(t *testing.T, l *snapwire.Loaded, src *snapwire.Source, sessions []querylog.Session) {
	t.Helper()
	rep := l.Snap.Rep
	if rep.Weighting != src.Rep.Weighting {
		t.Fatalf("weighting %d vs %d", rep.Weighting, src.Rep.Weighting)
	}
	assertIndexEqual(t, "queries", src.Rep.Queries, rep.Queries)
	for v := 0; v < bipartite.NumViews; v++ {
		assertIndexEqual(t, "objects", src.Rep.Objects[v], rep.Objects[v])
		want, got := src.Rep.W[v].View(), rep.W[v].View()
		if len(want.RowPtr) != len(got.RowPtr) || len(want.ColIdx) != len(got.ColIdx) {
			t.Fatalf("view %d: CSR shape differs", v)
		}
		for i := range want.RowPtr {
			if want.RowPtr[i] != got.RowPtr[i] {
				t.Fatalf("view %d rowptr[%d]: %d vs %d", v, i, want.RowPtr[i], got.RowPtr[i])
			}
		}
		for i := range want.ColIdx {
			if want.ColIdx[i] != got.ColIdx[i] {
				t.Fatalf("view %d colidx[%d]: %d vs %d", v, i, want.ColIdx[i], got.ColIdx[i])
			}
		}
		sameF64(t, "view val", want.Val, got.Val)
	}

	// Symbols: token lists must match query by query.
	if (l.Snap.Symbols == nil) != (src.Symbols == nil) {
		t.Fatalf("symbol table presence: %v vs %v", l.Snap.Symbols != nil, src.Symbols != nil)
	}
	if src.Symbols != nil {
		if l.Snap.Symbols.Len() != src.Symbols.Len() {
			t.Fatalf("symbols: %d vs %d", l.Snap.Symbols.Len(), src.Symbols.Len())
		}
		for id := uint32(0); int(id) < src.Symbols.Len(); id++ {
			a, b := src.Symbols.Tokens(id), l.Snap.Symbols.Tokens(id)
			if len(a) != len(b) {
				t.Fatalf("symbols %d: %d tokens vs %d", id, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("symbols %d token %d: %q vs %q", id, i, a[i], b[i])
				}
			}
		}
	}

	// UPM parity across every accessor the serve path uses.
	if src.UPM != nil {
		if l.Snap.Profiles == nil {
			t.Fatal("profiles lost")
		}
		got := l.Snap.Profiles.UPM()
		want := src.UPM
		if got.K() != want.K() || got.NumDocs() != want.NumDocs() {
			t.Fatalf("UPM dims: K %d/%d docs %d/%d", got.K(), want.K(), got.NumDocs(), want.NumDocs())
		}
		sameF64(t, "alpha", want.Alpha(), got.Alpha())
		for k := 0; k < want.K(); k++ {
			wa, wb := want.Tau(k)
			ga, gb := got.Tau(k)
			if wa != ga || wb != gb {
				t.Fatalf("tau[%d]: (%g,%g) vs (%g,%g)", k, wa, wb, ga, gb)
			}
		}
		for d := 0; d < want.NumDocs(); d++ {
			sameF64(t, "theta", want.Theta(d), got.Theta(d))
			for k := 0; k < want.K(); k++ {
				for w := 0; w < src.Words.Len(); w += 7 {
					a, b := want.WordProb(d, k, w), got.WordProb(d, k, w)
					if math.Abs(a-b) > 1e-12 {
						t.Fatalf("wordprob(%d,%d,%d): %g vs %g", d, k, w, a, b)
					}
				}
			}
		}
		assertIndexEqual(t, "words", src.Words, l.Words)
		if l.Snap.Corpus == nil || l.Snap.Corpus.Words != l.Words {
			t.Fatal("corpus word index not wired to loaded index")
		}
	}

	// Session index round trip (lazy decode).
	dec, err := l.DecodeSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(sessions) {
		t.Fatalf("sessions: %d vs %d", len(dec), len(sessions))
	}
	for i := range sessions {
		if dec[i].UserID != sessions[i].UserID || len(dec[i].Entries) != len(sessions[i].Entries) {
			t.Fatalf("session %d differs", i)
		}
		for j := range sessions[i].Entries {
			a, b := sessions[i].Entries[j], dec[i].Entries[j]
			if a.UserID != b.UserID || a.Query != b.Query || a.ClickedURL != b.ClickedURL || !a.Time.Equal(b.Time) {
				t.Fatalf("session %d entry %d: %+v vs %+v", i, j, a, b)
			}
		}
	}

	// Config blob and stats.
	if !bytes.Equal(l.Config, src.Config) {
		t.Fatalf("config blob: %q vs %q", l.Config, src.Config)
	}
	st := l.Snap.Stats
	if st.NumQueries != src.Rep.NumQueries() || st.NumSessions != len(sessions) ||
		st.LogEntries != src.Meta.LogEntries || st.BuiltAt.UnixNano() != src.Meta.BuiltAtNano {
		t.Fatalf("stats: %+v", st)
	}
	if l.Snap.Generation == 0 {
		t.Fatal("generation unset")
	}
}

func TestEncodeLoadRoundTrip(t *testing.T) {
	buf, src, sessions := encodeWorld(t)
	l, err := snapwire.Load(buf)
	if err != nil {
		t.Fatal(err)
	}
	if l.Version != snapwire.Version {
		t.Fatalf("version %d", l.Version)
	}
	if l.Size != int64(len(buf)) {
		t.Fatalf("size %d vs %d", l.Size, len(buf))
	}
	if len(l.Sections) == 0 {
		t.Fatal("no sections")
	}
	assertLoadedMatches(t, l, src, sessions)
}

func TestLoadFileRoundTrip(t *testing.T) {
	buf, src, sessions := encodeWorld(t)
	path := filepath.Join(t.TempDir(), "snap.pqsw")

	var fileBuf bytes.Buffer
	if _, err := src.WriteTo(&fileBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fileBuf.Bytes(), buf) {
		t.Fatal("WriteTo image differs from Encode image")
	}
	if err := os.WriteFile(path, fileBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	l, err := snapwire.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mapped=%v size=%d sections=%d", l.Mapped, l.Size, len(l.Sections))
	assertLoadedMatches(t, l, src, sessions)
}

func TestEncodeWithoutProfiles(t *testing.T) {
	src, sessions := buildWorld(t)
	src.UPM, src.Words = nil, nil
	buf, err := snapwire.Encode(src)
	if err != nil {
		t.Fatal(err)
	}
	l, err := snapwire.Load(buf)
	if err != nil {
		t.Fatal(err)
	}
	if l.Snap.Profiles != nil || l.Words != nil {
		t.Fatal("profiles materialized from nothing")
	}
	assertLoadedMatches(t, l, src, sessions)
}

func TestVerifyAndInspect(t *testing.T) {
	buf, _, _ := encodeWorld(t)
	if err := snapwire.Verify(buf); err != nil {
		t.Fatal(err)
	}
	h, err := snapwire.Inspect(buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != snapwire.Version || h.FileSize != uint64(len(buf)) {
		t.Fatalf("header: %+v", h)
	}
	seen := map[string]bool{}
	for _, s := range h.Sections {
		if seen[s.Name()] {
			t.Fatalf("duplicate section %s", s.Name())
		}
		seen[s.Name()] = true
	}
	for _, name := range []string{"meta", "config", "str-blob/queries", "mat-val/0", "upm-alpha", "sessions"} {
		if !seen[name] {
			t.Fatalf("section %s missing from table (have %v)", name, h.Sections)
		}
	}
}

// refix recomputes the trailing whole-file checksum after a deliberate
// mutation, so corruption tests exercise the *inner* validation layers
// (section table bounds, per-section checksums) rather than tripping the
// file-level crc every time.
func refix(buf []byte) {
	binary.LittleEndian.PutUint32(buf[len(buf)-4:],
		crc32.Checksum(buf[:len(buf)-4], crc32.MakeTable(crc32.Castagnoli)))
}

func TestLoadRejectsCorrupt(t *testing.T) {
	valid, _, _ := encodeWorld(t)

	// Locate the first section entry past meta to corrupt (table starts
	// at byte 24; entry = kind u16, inst u16, rsvd u32, offset u64,
	// length u64, crc u32, rsvd u32).
	secOff := func(i int) int { return 24 + i*32 }

	cases := []struct {
		name   string
		mutate func(b []byte) []byte
		want   error
	}{
		{"empty", func(b []byte) []byte { return nil }, snapwire.ErrFormat},
		{"three bytes", func(b []byte) []byte { return b[:3] }, snapwire.ErrFormat},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, snapwire.ErrFormat},
		{"magic only", func(b []byte) []byte { return b[:4] }, snapwire.ErrFormat},
		{"version skew", func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], 99)
			return b
		}, snapwire.ErrFormat},
		{"truncated half", func(b []byte) []byte { return b[:len(b)/2] }, snapwire.ErrFormat},
		{"truncated one byte", func(b []byte) []byte { return b[:len(b)-1] }, snapwire.ErrFormat},
		{"file size lies", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], uint64(len(b))+64)
			return b
		}, snapwire.ErrFormat},
		{"section count bomb", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:20], 1<<31)
			refix(b)
			return b
		}, snapwire.ErrFormat},
		{"section table overrun", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:20], 4000)
			refix(b)
			return b
		}, snapwire.ErrFormat},
		{"payload bit flip", func(b []byte) []byte {
			b[len(b)-64] ^= 0x40 // inside the last section's payload
			return b
		}, snapwire.ErrChecksum},
		{"trailing crc flip", func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		}, snapwire.ErrChecksum},
		{"section offset past end", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[secOff(1)+8:], uint64(len(b)))
			refix(b)
			return b
		}, snapwire.ErrFormat},
		{"section offset into header", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[secOff(1)+8:], 0)
			refix(b)
			return b
		}, snapwire.ErrFormat},
		{"section offset misaligned", func(b []byte) []byte {
			off := binary.LittleEndian.Uint64(b[secOff(1)+8:])
			binary.LittleEndian.PutUint64(b[secOff(1)+8:], off+1)
			refix(b)
			return b
		}, snapwire.ErrFormat},
		{"section length overflow", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[secOff(1)+16:], math.MaxUint64-8)
			refix(b)
			return b
		}, snapwire.ErrFormat},
		{"section payload moved", func(b []byte) []byte {
			// Point one section at another's bytes: bounds stay legal,
			// so only the per-section checksum can catch it.
			off2 := binary.LittleEndian.Uint64(b[secOff(2)+8:])
			ln2 := binary.LittleEndian.Uint64(b[secOff(2)+16:])
			binary.LittleEndian.PutUint64(b[secOff(1)+8:], off2)
			binary.LittleEndian.PutUint64(b[secOff(1)+16:], ln2)
			refix(b)
			return b
		}, snapwire.ErrChecksum},
		{"legacy gob", func(b []byte) []byte {
			return []byte("\x1f\xff\x81\x03\x01\x01\nengineWire\x01\xff\x82\x00")
		}, snapwire.ErrFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := append([]byte(nil), valid...)
			_, err := snapwire.Load(tc.mutate(buf))
			if err == nil {
				t.Fatal("corrupt image accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want %v", err, tc.want)
			}
			t.Logf("rejected: %v", err)
		})
	}
}

func TestSectionTamperEveryByteOfTable(t *testing.T) {
	valid, _, _ := encodeWorld(t)
	h, err := snapwire.Inspect(valid)
	if err != nil {
		t.Fatal(err)
	}
	tableEnd := 24 + len(h.Sections)*32
	// Flip one byte per 8-byte stride across the whole section table.
	// Every mutation must be handled without panicking, and anything
	// Verify rejects Load must reject too (Load may additionally fail
	// on assembly — e.g. a kind flip makes a required section vanish).
	for off := 24; off < tableEnd; off += 8 {
		buf := append([]byte(nil), valid...)
		buf[off] ^= 0xa5
		refix(buf)
		_, err := snapwire.Load(buf)
		if verr := snapwire.Verify(buf); verr != nil && err == nil {
			t.Fatalf("offset %d: Verify rejects (%v) but Load accepted", off, verr)
		}
	}
}
