// Package snapwire defines the engine's versioned binary snapshot
// format: a sectioned, checksummed, mmap-friendly layout in which every
// hot serving array — CSR matrices, string indexes, symbol tokens,
// profile state — is stored exactly as it is read, so loading is
// section-table validation plus slice aliasing instead of per-element
// decoding.
//
// File layout (all integers little-endian):
//
//	[0,  4)  magic "PQSW"
//	[4,  6)  format version (uint16)
//	[6,  8)  reserved
//	[8, 16)  total file size (uint64) — cheap truncation check
//	[16, 20) section count (uint32)
//	[20, 24) reserved
//	[24, 24+32n) section table, 32 bytes per entry:
//	           kind uint16 | inst uint16 | reserved uint32 |
//	           offset uint64 | length uint64 | crc32c uint32 | reserved
//	...        section payloads, each offset 64-byte aligned
//	[size-4, size) crc32c (Castagnoli) of bytes [0, size-4)
//
// Checksum discipline: every section carries its own crc32c and the
// file carries a trailing whole-file crc32c. Load verifies both before
// any payload byte is interpreted; Verify re-checks them on demand.
//
// Aliasing rules: on 64-bit little-endian platforms the numeric arrays
// returned by Load alias the input buffer directly (zero copy); other
// platforms fall back to copying. Either way the caller must treat the
// buffer as immutable for the life of the snapshot, and an mmap'd
// buffer must stay mapped for the life of the process once adopted —
// strings handed out by the snapshot alias it. Mutation of a loaded
// snapshot is impossible by construction: every wrapper type
// (arena.Strings, flat Index/SymbolTable/UPM, sparse.Matrix) exposes
// read-only accessors, and the mutation paths that do exist
// (Intern, Clone, FoldIn) thaw into fresh heap state first.
package snapwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Version is the current wire format version.
const Version = 1

const (
	magic       = "PQSW"
	headerSize  = 24
	sectionSize = 32
	align       = 64
	trailerSize = 4

	// maxSections bounds the section table so a hostile header cannot
	// make the loader over-allocate: the real format uses ~60 sections.
	maxSections = 4096
)

// castagnoli is the crc32c table used for every checksum in the format.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrFormat is wrapped by every structural decode error.
var ErrFormat = errors.New("snapwire: invalid snapshot image")

// ErrChecksum is wrapped by checksum mismatches (file- or section-level).
var ErrChecksum = errors.New("snapwire: checksum mismatch")

// Section kinds. The (kind, inst) pair identifies one stored array.
const (
	kindMeta      uint16 = 1 // JSON: dimensions, weighting, stats
	kindConfig    uint16 = 2 // opaque JSON: engine config (core.Config)
	kindUPMConfig uint16 = 3 // JSON: topicmodel.UPMConfig

	// String indexes (inst: see inst* constants below).
	kindStrOffsets uint16 = 10 // []uint64
	kindStrBlob    uint16 = 11 // raw bytes
	kindStrTable   uint16 = 12 // []uint32

	// CSR matrices of the representation (inst = bipartite.View).
	kindMatRowPtr uint16 = 20 // []int64
	kindMatColIdx uint16 = 21 // []int64
	kindMatVal    uint16 = 22 // []float64

	// Symbol-table token lists.
	kindSymTokPtr uint16 = 30 // []int64
	kindSymTokIdx uint16 = 31 // []int64

	// Session index (lazily decoded; see sessions.go).
	kindSessions uint16 = 40

	// UPM flat state (topicmodel.UPMState).
	kindUPMAlpha      uint16 = 50 // []float64
	kindUPMBetaPrior  uint16 = 51
	kindUPMDeltaPrior uint16 = 52
	kindUPMBetaSum    uint16 = 53
	kindUPMDeltaSum   uint16 = 54
	kindUPMTau        uint16 = 55
	kindUPMNdk        uint16 = 56
	kindUPMNdkSum     uint16 = 57
	kindUPMNkwdSum    uint16 = 58
	kindUPMNkudSum    uint16 = 59
	kindUPMNkwdPtr    uint16 = 60 // []int64
	kindUPMNkwdIdx    uint16 = 61 // []int64
	kindUPMNkwdVal    uint16 = 62 // []float64
	kindUPMNkudPtr    uint16 = 63
	kindUPMNkudIdx    uint16 = 64
	kindUPMNkudVal    uint16 = 65
)

// String-index instances.
const (
	instQueries    uint16 = 0
	instObjURL     uint16 = 1
	instObjSession uint16 = 2
	instObjTerm    uint16 = 3
	instWords      uint16 = 4
	instSymToks    uint16 = 5
	instUPMDocs    uint16 = 6
)

var kindNames = map[uint16]string{
	kindMeta: "meta", kindConfig: "config", kindUPMConfig: "upm-config",
	kindStrOffsets: "str-offsets", kindStrBlob: "str-blob", kindStrTable: "str-table",
	kindMatRowPtr: "mat-rowptr", kindMatColIdx: "mat-colidx", kindMatVal: "mat-val",
	kindSymTokPtr: "sym-tokptr", kindSymTokIdx: "sym-tokidx",
	kindSessions: "sessions",
	kindUPMAlpha: "upm-alpha", kindUPMBetaPrior: "upm-beta-prior", kindUPMDeltaPrior: "upm-delta-prior",
	kindUPMBetaSum: "upm-beta-sum", kindUPMDeltaSum: "upm-delta-sum", kindUPMTau: "upm-tau",
	kindUPMNdk: "upm-ndk", kindUPMNdkSum: "upm-ndk-sum",
	kindUPMNkwdSum: "upm-nkwd-sum", kindUPMNkudSum: "upm-nkud-sum",
	kindUPMNkwdPtr: "upm-nkwd-ptr", kindUPMNkwdIdx: "upm-nkwd-idx", kindUPMNkwdVal: "upm-nkwd-val",
	kindUPMNkudPtr: "upm-nkud-ptr", kindUPMNkudIdx: "upm-nkud-idx", kindUPMNkudVal: "upm-nkud-val",
}

var instNames = map[uint16]string{
	instQueries: "queries", instObjURL: "url-objects", instObjSession: "session-objects",
	instObjTerm: "term-objects", instWords: "words", instSymToks: "sym-tokens", instUPMDocs: "upm-docs",
}

// KindName renders a (kind, inst) pair for diagnostics and inspect
// output, e.g. "str-blob/queries" or "mat-val/1".
func KindName(kind, inst uint16) string {
	k, ok := kindNames[kind]
	if !ok {
		k = fmt.Sprintf("kind-%d", kind)
	}
	switch kind {
	case kindStrOffsets, kindStrBlob, kindStrTable:
		if in, ok := instNames[inst]; ok {
			return k + "/" + in
		}
	case kindMatRowPtr, kindMatColIdx, kindMatVal:
		return fmt.Sprintf("%s/%d", k, inst)
	}
	if inst != 0 {
		return fmt.Sprintf("%s/%d", k, inst)
	}
	return k
}

// SectionNames returns the canonical name of every section the current
// format version can emit, in a stable order — the label universe for
// the pqsda_snapshot_bytes{section} gauge (absent sections read 0).
func SectionNames() []string {
	var out []string
	out = append(out, KindName(kindMeta, 0), KindName(kindConfig, 0), KindName(kindUPMConfig, 0))
	for _, inst := range []uint16{instQueries, instObjURL, instObjSession, instObjTerm, instWords, instSymToks, instUPMDocs} {
		for _, kind := range []uint16{kindStrOffsets, kindStrBlob, kindStrTable} {
			out = append(out, KindName(kind, inst))
		}
	}
	for v := uint16(0); v < 3; v++ {
		for _, kind := range []uint16{kindMatRowPtr, kindMatColIdx, kindMatVal} {
			out = append(out, KindName(kind, v))
		}
	}
	out = append(out, KindName(kindSymTokPtr, 0), KindName(kindSymTokIdx, 0), KindName(kindSessions, 0))
	for kind := kindUPMAlpha; kind <= kindUPMNkudVal; kind++ {
		out = append(out, KindName(kind, 0))
	}
	return out
}

// Section describes one entry of the section table.
type Section struct {
	Kind, Inst uint16
	Offset     uint64
	Length     uint64
	CRC        uint32
}

// Name renders the section's (kind, inst) pair.
func (s Section) Name() string { return KindName(s.Kind, s.Inst) }

// Header is the decoded fixed-size file header.
type Header struct {
	Version  uint16
	FileSize uint64
	Sections []Section
}

// parseHeader decodes and validates the header, the section table, and
// every checksum (file trailer first, then per-section). On success the
// returned sections are in file order with offsets/lengths proven
// in-bounds and 8-byte aligned.
func parseHeader(buf []byte) (*Header, error) {
	if len(buf) < 4 || string(buf[:4]) != magic {
		if len(buf) < 4 {
			return nil, fmt.Errorf("%w: %d bytes is shorter than any valid image", ErrFormat, len(buf))
		}
		return nil, fmt.Errorf("%w: bad magic %q", ErrFormat, buf[:4])
	}
	if len(buf) < headerSize+trailerSize {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any valid image", ErrFormat, len(buf))
	}
	h := &Header{Version: binary.LittleEndian.Uint16(buf[4:6])}
	if h.Version != Version {
		return nil, fmt.Errorf("%w: format version %d, this build reads version %d", ErrFormat, h.Version, Version)
	}
	h.FileSize = binary.LittleEndian.Uint64(buf[8:16])
	if h.FileSize != uint64(len(buf)) {
		return nil, fmt.Errorf("%w: header says %d bytes, image is %d (truncated?)", ErrFormat, h.FileSize, len(buf))
	}
	n := binary.LittleEndian.Uint32(buf[16:20])
	if n > maxSections {
		return nil, fmt.Errorf("%w: %d sections (max %d)", ErrFormat, n, maxSections)
	}
	tableEnd := headerSize + int(n)*sectionSize
	if tableEnd > len(buf)-trailerSize {
		return nil, fmt.Errorf("%w: section table overruns image", ErrFormat)
	}

	// Whole-file checksum before interpreting anything else.
	want := binary.LittleEndian.Uint32(buf[len(buf)-trailerSize:])
	if got := crc32.Checksum(buf[:len(buf)-trailerSize], castagnoli); got != want {
		return nil, fmt.Errorf("%w: file crc32c %08x, header says %08x", ErrChecksum, got, want)
	}

	h.Sections = make([]Section, n)
	for i := range h.Sections {
		e := buf[headerSize+i*sectionSize:]
		s := Section{
			Kind:   binary.LittleEndian.Uint16(e[0:2]),
			Inst:   binary.LittleEndian.Uint16(e[2:4]),
			Offset: binary.LittleEndian.Uint64(e[8:16]),
			Length: binary.LittleEndian.Uint64(e[16:24]),
			CRC:    binary.LittleEndian.Uint32(e[24:28]),
		}
		end := s.Offset + s.Length
		if end < s.Offset || s.Offset < uint64(tableEnd) || end > uint64(len(buf)-trailerSize) {
			return nil, fmt.Errorf("%w: section %s [%d,%d) outside payload area", ErrFormat, s.Name(), s.Offset, end)
		}
		if s.Offset%8 != 0 {
			return nil, fmt.Errorf("%w: section %s offset %d not 8-byte aligned", ErrFormat, s.Name(), s.Offset)
		}
		if got := crc32.Checksum(buf[s.Offset:end], castagnoli); got != s.CRC {
			return nil, fmt.Errorf("%w: section %s crc32c %08x, table says %08x", ErrChecksum, s.Name(), got, s.CRC)
		}
		h.Sections[i] = s
	}
	return h, nil
}
