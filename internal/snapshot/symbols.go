package snapshot

import (
	"fmt"
	"sync"

	"repro/internal/arena"
	"repro/internal/bipartite"
	"repro/internal/querylog"
)

// SymbolTable is the snapshot's interned query-symbol table: a dense
// uint32 id per known query (the id equals the representation's query
// node id), the canonical normalized string, and the precomputed token
// list. It is built once per snapshot build and shared by every clone
// of the snapshot, so hot paths — the suggestion cache key, candidate
// personalization, term-fallback seeding — resolve a query to an id
// once and then work in index space instead of re-normalizing,
// re-tokenizing and re-hashing raw query strings per hit.
//
// Like everything else in a snapshot it is immutable after build.
//
// A table is backed either by the map + slices BuildSymbols produces,
// or — for snapshots loaded in place from the wire format — by flat
// arena data (SymbolsFromArena): the name table is an arena string
// index shared with the representation's query index, and the token
// lists are a CSR over a distinct-token string table. The flat form
// materializes its [][]string token view lazily on first use (one
// amortized pass; every string still aliases the arena), keeping
// snapshot load allocations flat in entry count.
type SymbolTable struct {
	names  []string   // id → canonical query string (aliases Rep's interned names)
	tokens [][]string // id → querylog.Tokenize(name), precomputed
	byName map[string]uint32

	// Flat backing (nil for map-backed tables).
	flatNames *arena.Strings // id → name
	flatToks  *arena.Strings // distinct token strings
	tokPtr    []int64        // id → token list: tokIdx[tokPtr[id]:tokPtr[id+1]]
	tokIdx    []int64        // indexes into flatToks
	tokOnce   sync.Once      // guards lazy materialization of tokens
}

// BuildSymbols derives the symbol table from a built representation.
// Cost is one Tokenize per distinct query — O(corpus), paid at build
// time, never on the serving path.
func BuildSymbols(rep *bipartite.Representation) *SymbolTable {
	n := rep.NumQueries()
	t := &SymbolTable{
		names:  make([]string, n),
		tokens: make([][]string, n),
		byName: make(map[string]uint32, n),
	}
	for i := 0; i < n; i++ {
		name := rep.Queries.Name(i)
		t.names[i] = name
		t.tokens[i] = querylog.Tokenize(name)
		t.byName[name] = uint32(i)
	}
	return t
}

// SymbolsFromArena wraps flat symbol data as a read-only table: names
// is the query string index (typically shared with the
// representation's query index), toks the distinct-token string table,
// and ptr/idx the per-query token lists as a CSR. The CSR shape is
// fully validated here so accessors never panic on hostile input.
func SymbolsFromArena(names, toks *arena.Strings, ptr, idx []int64) (*SymbolTable, error) {
	n := names.Len()
	if len(ptr) != n+1 {
		return nil, fmt.Errorf("snapshot: symbol token table: %d row pointers, want %d", len(ptr), n+1)
	}
	if ptr[0] != 0 {
		return nil, fmt.Errorf("snapshot: symbol token table: ptr[0] = %d", ptr[0])
	}
	for i := 0; i < n; i++ {
		if ptr[i+1] < ptr[i] {
			return nil, fmt.Errorf("snapshot: symbol token table: row pointers not monotone at %d", i)
		}
	}
	if ptr[n] != int64(len(idx)) {
		return nil, fmt.Errorf("snapshot: symbol token table: %d token refs, want %d", len(idx), ptr[n])
	}
	for _, j := range idx {
		if j < 0 || j >= int64(toks.Len()) {
			return nil, fmt.Errorf("snapshot: symbol token table: token id %d out of %d", j, toks.Len())
		}
	}
	return &SymbolTable{flatNames: names, flatToks: toks, tokPtr: ptr, tokIdx: idx}, nil
}

// FlatTokens lays the table's token lists out flat: the distinct-token
// string table plus the per-query CSR that SymbolsFromArena accepts.
func (t *SymbolTable) FlatTokens() (tokOffsets []uint64, tokBlob []byte, tokTable []uint32, ptr, idx []int64) {
	if t.flatNames != nil {
		return t.flatToks.Offsets(), t.flatToks.Blob(), t.flatToks.Table(), t.tokPtr, t.tokIdx
	}
	distinct := make([]string, 0, 256)
	byTok := make(map[string]int64, 256)
	ptr = make([]int64, len(t.tokens)+1)
	for i, toks := range t.tokens {
		for _, tok := range toks {
			id, ok := byTok[tok]
			if !ok {
				id = int64(len(distinct))
				byTok[tok] = id
				distinct = append(distinct, tok)
			}
			idx = append(idx, id)
		}
		ptr[i+1] = int64(len(idx))
	}
	if idx == nil {
		idx = []int64{}
	}
	tokOffsets, tokBlob, tokTable = arena.BuildStrings(distinct)
	return tokOffsets, tokBlob, tokTable, ptr, idx
}

// materializeTokens builds the [][]string token view from the flat CSR
// (every string aliases the arena). Called at most once per table.
func (t *SymbolTable) materializeTokens() {
	n := t.flatNames.Len()
	tokens := make([][]string, n)
	for i := 0; i < n; i++ {
		lo, hi := t.tokPtr[i], t.tokPtr[i+1]
		row := make([]string, hi-lo)
		for p := lo; p < hi; p++ {
			row[p-lo] = t.flatToks.Name(int(t.tokIdx[p]))
		}
		tokens[i] = row
	}
	t.tokens = tokens
}

// Len returns the number of interned queries.
func (t *SymbolTable) Len() int {
	if t.flatNames != nil {
		return t.flatNames.Len()
	}
	return len(t.names)
}

// Lookup resolves a normalized query string to its dense id.
func (t *SymbolTable) Lookup(normalized string) (uint32, bool) {
	if t.flatNames != nil {
		id, ok := t.flatNames.Lookup(normalized)
		return uint32(id), ok
	}
	id, ok := t.byName[normalized]
	return id, ok
}

// Name returns the canonical string for an id.
func (t *SymbolTable) Name(id uint32) string {
	if t.flatNames != nil {
		return t.flatNames.Name(int(id))
	}
	return t.names[id]
}

// Tokens returns the precomputed token list for an id. Callers must
// not modify the returned slice.
func (t *SymbolTable) Tokens(id uint32) []string {
	if t.flatNames != nil {
		t.tokOnce.Do(t.materializeTokens)
	}
	return t.tokens[id]
}

// Finish derives the build-once serving accelerator (the symbol table)
// for a freshly constructed snapshot. Every snapshot
// constructor calls it before publication.
func (s *Snapshot) Finish() *Snapshot {
	if s.Rep != nil {
		s.Symbols = BuildSymbols(s.Rep)
	}
	return s
}
