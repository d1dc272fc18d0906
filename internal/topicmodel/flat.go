package topicmodel

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/arena"
)

// UPMState is the flat, offset-addressed image of a trained UPM's
// serving state — the "concise summary of each user's preference" the
// paper stores offline (Section V-A), laid out so every array can alias
// a snapshot arena directly: dense hyperparameters as row-major slabs,
// the sparse per-(document, topic) word/URL counts as CSR over D*K
// rows, and the user-ID index as a flat arena string table.
//
// All slices are plain numeric arrays: a UPMState can be written to or
// read from a wire section with zero per-element decoding.
type UPMState struct {
	Cfg     UPMConfig
	V, U, D int

	Alpha      []float64 // K
	BetaPrior  []float64 // K*V, row-major: beta[k*V+w]
	DeltaPrior []float64 // K*U, row-major: delta[k*U+u]
	BetaSum    []float64 // K
	DeltaSum   []float64 // K
	Tau        []float64 // 2K: [a_0 b_0 a_1 b_1 ...]

	Ndk     []float64 // D*K session counts C_dk
	NdkSum  []float64 // D
	NkwdSum []float64 // D*K
	NkudSum []float64 // D*K

	// Sparse counts: CSR over rows r = d*K + k, column ids sorted
	// ascending within each row.
	NkwdPtr []int64 // D*K+1
	NkwdIdx []int64 // word ids
	NkwdVal []float64
	NkudPtr []int64 // D*K+1
	NkudIdx []int64 // URL ids
	NkudVal []float64

	// User-ID index (doc d -> userID) as a flat arena string table.
	DocOffsets []uint64
	DocBlob    []byte
	DocTable   []uint32
}

// State lays the model out as a UPMState: the hyperparameter arrays
// are the model's own (nothing writes them after training), and the
// documents' counts are concatenated in document order.
func (m *UPM) State() *UPMState {
	k, d := m.cfg.K, len(m.docs)
	st := &UPMState{
		Cfg: m.cfg, V: m.v, U: m.u, D: d,
		Alpha: m.alpha, BetaPrior: m.betaPrior, DeltaPrior: m.deltaPrior,
		BetaSum: m.betaSum, DeltaSum: m.deltaSum, Tau: m.tau,
		Ndk:     make([]float64, 0, d*k),
		NdkSum:  make([]float64, 0, d),
		NkwdSum: make([]float64, 0, d*k),
		NkudSum: make([]float64, 0, d*k),
		NkwdPtr: make([]int64, 1, d*k+1),
		NkudPtr: make([]int64, 1, d*k+1),
	}
	names := make([]string, d)
	for i, doc := range m.docs {
		names[i] = doc.user
		st.Ndk = append(st.Ndk, doc.ndk...)
		st.NdkSum = append(st.NdkSum, doc.ndkSum)
		st.NkwdSum = append(st.NkwdSum, doc.nkwdSum...)
		st.NkudSum = append(st.NkudSum, doc.nkudSum...)
		st.NkwdPtr, st.NkwdIdx, st.NkwdVal = doc.words.appendTo(st.NkwdPtr, st.NkwdIdx, st.NkwdVal)
		st.NkudPtr, st.NkudIdx, st.NkudVal = doc.urls.appendTo(st.NkudPtr, st.NkudIdx, st.NkudVal)
	}
	st.DocOffsets, st.DocBlob, st.DocTable = arena.BuildStrings(names)
	return st
}

// appendTo appends the rows to a CSR whose row pointers are offsets
// into idx.
func (c *countRows) appendTo(ptr, idx []int64, val []float64) ([]int64, []int64, []float64) {
	for k := 0; k+1 < len(c.ptr); k++ {
		lo, hi := c.ptr[k], c.ptr[k+1]
		idx = append(idx, c.idx[lo:hi]...)
		val = append(val, c.val[lo:hi]...)
		ptr = append(ptr, int64(len(idx)))
	}
	return ptr, idx, val
}

// UPMFromState validates a flat state image and wraps it as a UPM that
// aliases the image's arrays and copies no count. Every structural
// invariant a hostile buffer could violate is checked here — array
// lengths, CSR monotonicity and bounds, doc-table shape — so the
// serving accessors can index without panicking. Values (probabilities, counts) are not sanity-checked;
// corruption there is caught by the wire format's checksums.
func UPMFromState(st *UPMState) (*UPM, error) {
	k := st.Cfg.K
	if k <= 0 || st.V < 0 || st.U < 0 || st.D < 0 {
		return nil, fmt.Errorf("topicmodel: flat UPM: bad dims K=%d V=%d U=%d D=%d", k, st.V, st.U, st.D)
	}
	const maxInt = int(^uint(0) >> 1)
	if st.V > 0 && k > maxInt/st.V || st.U > 0 && k > maxInt/st.U || st.D > 0 && k > maxInt/st.D {
		return nil, fmt.Errorf("topicmodel: flat UPM: dimension overflow K=%d V=%d U=%d D=%d", k, st.V, st.U, st.D)
	}
	dk := st.D * k
	for _, c := range []struct {
		name string
		got  int
		want int
	}{
		{"Alpha", len(st.Alpha), k},
		{"BetaPrior", len(st.BetaPrior), k * st.V},
		{"DeltaPrior", len(st.DeltaPrior), k * st.U},
		{"BetaSum", len(st.BetaSum), k},
		{"DeltaSum", len(st.DeltaSum), k},
		{"Tau", len(st.Tau), 2 * k},
		{"Ndk", len(st.Ndk), dk},
		{"NdkSum", len(st.NdkSum), st.D},
		{"NkwdSum", len(st.NkwdSum), dk},
		{"NkudSum", len(st.NkudSum), dk},
	} {
		if c.got != c.want {
			return nil, fmt.Errorf("topicmodel: flat UPM: %s has %d elements, want %d", c.name, c.got, c.want)
		}
	}
	if err := checkCSR("word", st.NkwdPtr, st.NkwdIdx, st.NkwdVal, dk, st.V); err != nil {
		return nil, err
	}
	if err := checkCSR("url", st.NkudPtr, st.NkudIdx, st.NkudVal, dk, st.U); err != nil {
		return nil, err
	}
	docs, err := arena.NewStrings(st.DocOffsets, st.DocBlob, st.DocTable)
	if err != nil {
		return nil, fmt.Errorf("topicmodel: flat UPM doc table: %w", err)
	}
	if docs.Len() != st.D {
		return nil, fmt.Errorf("topicmodel: flat UPM: doc table has %d names, want %d", docs.Len(), st.D)
	}
	// Every document is a window on the image: its row pointers keep
	// their image offsets into the shared id and count arrays. The
	// user-ID keys alias the image's strings.
	m := &UPM{
		cfg: st.Cfg, v: st.V, u: st.U,
		alpha: st.Alpha, betaPrior: st.BetaPrior, deltaPrior: st.DeltaPrior,
		betaSum: st.BetaSum, deltaSum: st.DeltaSum, tau: st.Tau,
		docs:  make([]*upmDoc, st.D),
		docID: make(map[string]int, st.D),
	}
	backing := make([]upmDoc, st.D)
	for d := range backing {
		r := d * k
		doc := &backing[d]
		*doc = upmDoc{
			user: docs.Name(d), ndkSum: st.NdkSum[d],
			ndk: st.Ndk[r : r+k], nkwdSum: st.NkwdSum[r : r+k], nkudSum: st.NkudSum[r : r+k],
			words: countRows{ptr: st.NkwdPtr[r : r+k+1], idx: st.NkwdIdx, val: st.NkwdVal},
			urls:  countRows{ptr: st.NkudPtr[r : r+k+1], idx: st.NkudIdx, val: st.NkudVal},
		}
		m.docs[d] = doc
		if _, dup := m.docID[doc.user]; !dup {
			m.docID[doc.user] = d
		}
	}
	return m, nil
}

func checkCSR(what string, ptr, idx []int64, val []float64, rows, cols int) error {
	if len(ptr) != rows+1 {
		return fmt.Errorf("topicmodel: flat UPM %s counts: %d row pointers, want %d", what, len(ptr), rows+1)
	}
	if ptr[0] != 0 {
		return fmt.Errorf("topicmodel: flat UPM %s counts: ptr[0] = %d", what, ptr[0])
	}
	for r := 0; r < rows; r++ {
		if ptr[r+1] < ptr[r] {
			return fmt.Errorf("topicmodel: flat UPM %s counts: row pointers not monotone at row %d", what, r)
		}
	}
	nnz := ptr[rows]
	if int64(len(idx)) != nnz || int64(len(val)) != nnz {
		return fmt.Errorf("topicmodel: flat UPM %s counts: %d ids / %d values, want %d", what, len(idx), len(val), nnz)
	}
	for r := 0; r < rows; r++ {
		prev := int64(-1)
		for p := ptr[r]; p < ptr[r+1]; p++ {
			j := idx[p]
			if j <= prev || j >= int64(cols) {
				return fmt.Errorf("topicmodel: flat UPM %s counts: bad column %d at row %d (cols=%d)", what, j, r, cols)
			}
			prev = j
		}
	}
	return nil
}

// Clone returns a model that FoldIn may extend or change without
// disturbing the original: it copies the document list and the user
// index, and shares the documents and hyperparameters, which nothing
// writes once trained or loaded. FoldIn replaces a document, never
// writes one in place, so a clone costs O(users) pointers, not counts.
func (m *UPM) Clone() *UPM {
	out := *m
	out.docs = slices.Clone(m.docs)
	out.docID = maps.Clone(m.docID)
	return &out
}
