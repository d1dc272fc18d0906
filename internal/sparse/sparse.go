// Package sparse provides compressed sparse row (CSR) matrices and the
// small set of sparse linear-algebra operations the PQS-DA pipeline needs:
// matrix-vector products, transposition, row normalization, scaling and
// element-wise combination. It also houses the iterative solvers used for
// the regularization framework's linear system (Eq. 15 of the paper).
//
// Everything is dense-free and allocation-conscious: matrices are built
// through a COO Builder and then frozen into immutable CSR form.
package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Matrix is an immutable sparse matrix in compressed sparse row form.
// The zero value is an empty 0x0 matrix.
type Matrix struct {
	rows, cols int
	rowPtr     []int     // length rows+1
	colIdx     []int     // length nnz
	val        []float64 // length nnz
}

// Builder accumulates (row, col, value) triplets and produces a CSR Matrix.
// Duplicate entries for the same coordinate are summed when Build is called.
type Builder struct {
	rows, cols int
	entries    []triplet
}

type triplet struct {
	r, c int
	v    float64
}

// NewBuilder returns a Builder for a rows x cols matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: negative dimensions %dx%d", rows, cols))
	}
	return &Builder{rows: rows, cols: cols}
}

// Add accumulates v at (r, c). Adding to the same coordinate repeatedly
// sums the contributions. Zero values are kept until Build, which drops
// coordinates whose accumulated sum is exactly zero.
func (b *Builder) Add(r, c int, v float64) {
	if r < 0 || r >= b.rows || c < 0 || c >= b.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %dx%d", r, c, b.rows, b.cols))
	}
	b.entries = append(b.entries, triplet{r, c, v})
}

// NNZBound returns the number of accumulated triplets (an upper bound on
// the nnz of the built matrix).
func (b *Builder) NNZBound() int { return len(b.entries) }

// tripletSorter orders triplets by (row, col) without reflection —
// Build dominates several hot paths, and sort.Slice's reflective swaps
// are measurably slower.
type tripletSorter []triplet

func (t tripletSorter) Len() int      { return len(t) }
func (t tripletSorter) Swap(i, j int) { t[i], t[j] = t[j], t[i] }
func (t tripletSorter) Less(i, j int) bool {
	if t[i].r != t[j].r {
		return t[i].r < t[j].r
	}
	return t[i].c < t[j].c
}

// Build freezes the accumulated triplets into a CSR matrix. The Builder
// may be reused afterwards; its contents are not consumed.
func (b *Builder) Build() *Matrix {
	ents := make([]triplet, len(b.entries))
	copy(ents, b.entries)
	sort.Sort(tripletSorter(ents))
	// Merge duplicates.
	out := ents[:0]
	for _, e := range ents {
		if n := len(out); n > 0 && out[n-1].r == e.r && out[n-1].c == e.c {
			out[n-1].v += e.v
		} else {
			out = append(out, e)
		}
	}
	// Drop exact zeros.
	kept := out[:0]
	for _, e := range out {
		if e.v != 0 {
			kept = append(kept, e)
		}
	}
	m := &Matrix{
		rows:   b.rows,
		cols:   b.cols,
		rowPtr: make([]int, b.rows+1),
		colIdx: make([]int, len(kept)),
		val:    make([]float64, len(kept)),
	}
	for i, e := range kept {
		m.rowPtr[e.r+1]++
		m.colIdx[i] = e.c
		m.val[i] = e.v
	}
	for r := 0; r < b.rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := &Matrix{
		rows:   n,
		cols:   n,
		rowPtr: make([]int, n+1),
		colIdx: make([]int, n),
		val:    make([]float64, n),
	}
	for i := 0; i < n; i++ {
		m.rowPtr[i+1] = i + 1
		m.colIdx[i] = i
		m.val[i] = 1
	}
	return m
}

// ScaledIdentity returns s·I directly, saving the copy Identity(n).Scale(s)
// would make — the Eq. 15 system assembly starts from (1+Σα)I on every
// uncached request.
func ScaledIdentity(n int, s float64) *Matrix {
	m := &Matrix{
		rows:   n,
		cols:   n,
		rowPtr: make([]int, n+1),
		colIdx: make([]int, n),
		val:    make([]float64, n),
	}
	for i := 0; i < n; i++ {
		m.rowPtr[i+1] = i + 1
		m.colIdx[i] = i
		m.val[i] = s
	}
	return m
}

// Diagonal returns a square matrix with d on the diagonal.
func Diagonal(d []float64) *Matrix {
	n := len(d)
	b := NewBuilder(n, n)
	for i, v := range d {
		if v != 0 {
			b.Add(i, i, v)
		}
	}
	return b.Build()
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return len(m.val) }

// At returns the value at (r, c), zero when the coordinate is not stored.
// It is O(log nnz(row)) and intended for tests and small matrices; hot
// paths should iterate rows instead.
func (m *Matrix) At(r, c int) float64 {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %dx%d", r, c, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[r], m.rowPtr[r+1]
	i := sort.SearchInts(m.colIdx[lo:hi], c) + lo
	if i < hi && m.colIdx[i] == c {
		return m.val[i]
	}
	return 0
}

// Row calls fn for each stored entry (col, value) in row r, in ascending
// column order.
func (m *Matrix) Row(r int, fn func(c int, v float64)) {
	for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
		fn(m.colIdx[i], m.val[i])
	}
}

// CSRView is a read-only view of a Matrix's CSR arrays, for flat kernels
// that cannot afford a dynamic call per nonzero (the hitting-time sweep
// in internal/randomwalk iterates the whole matrix l times per greedy
// round — a closure callback there is the dominant cost). The slices
// alias the matrix's backing arrays: callers MUST NOT modify them, and
// must not retain them past the matrix's lifetime. Row r's entries live
// at indices RowPtr[r] ≤ i < RowPtr[r+1] of ColIdx/Val, columns
// ascending.
type CSRView struct {
	RowPtr []int
	ColIdx []int
	Val    []float64
}

// View returns the matrix's CSR arrays as a read-only view.
func (m *Matrix) View() CSRView {
	return CSRView{RowPtr: m.rowPtr, ColIdx: m.colIdx, Val: m.val}
}

// FromCSR freezes already-assembled CSR arrays into a Matrix, taking
// ownership of the slices (callers must not retain or modify them).
// It is the fast path for kernels that emit rows in ascending order
// with sorted, duplicate-free columns — for those the Builder's triplet
// buffering and sort are pure overhead. Requirements, checked in one
// O(nnz) pass: rowPtr has length rows+1, starts at 0, is monotonically
// non-decreasing and ends at len(colIdx) == len(val); within each row
// column indices are strictly increasing and inside [0, cols).
func FromCSR(rows, cols int, rowPtr, colIdx []int, val []float64) *Matrix {
	m, err := FromCSRChecked(rows, cols, rowPtr, colIdx, val)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// FromCSRChecked is FromCSR with an error return instead of a panic:
// the construction path for CSR arrays read from an untrusted buffer
// (the snapshot wire format), where malformed input must surface as a
// load error, never a crash. The arrays are adopted, not copied, so
// kernels run directly on arena (possibly mmap'd) data.
func FromCSRChecked(rows, cols int, rowPtr, colIdx []int, val []float64) (*Matrix, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimensions %dx%d", rows, cols)
	}
	if len(rowPtr) != rows+1 || rowPtr[0] != 0 || rowPtr[rows] != len(colIdx) || len(colIdx) != len(val) {
		return nil, fmt.Errorf("sparse: inconsistent CSR arrays (rowPtr %d, colIdx %d, val %d for %d rows)",
			len(rowPtr), len(colIdx), len(val), rows)
	}
	for r := 0; r < rows; r++ {
		if rowPtr[r+1] < rowPtr[r] {
			return nil, fmt.Errorf("sparse: rowPtr not monotone at row %d", r)
		}
		for p := rowPtr[r]; p < rowPtr[r+1]; p++ {
			if c := colIdx[p]; c < 0 || c >= cols {
				return nil, fmt.Errorf("sparse: column %d out of range %dx%d", c, rows, cols)
			} else if p > rowPtr[r] && c <= colIdx[p-1] {
				return nil, fmt.Errorf("sparse: row %d columns not strictly increasing", r)
			}
		}
	}
	return &Matrix{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, val: val}, nil
}

// AppendNonzeros appends the nonzero entries of the dense row to the CSR
// column and value arrays, columns ascending, zeroes the row and
// returns the grown arrays — the emit step of a Gustavson product whose
// column count is small enough to scan (compact representations). Such
// rows are around half full, so a test per entry mispredicts every
// other time; instead every entry is stored at the write position, and
// the position advances by one exactly when the entry is nonzero (±0,
// and only ±0, shift out of the bit pattern).
func AppendNonzeros(row []float64, colIdx []int, val []float64) ([]int, []float64) {
	k := len(colIdx)
	colIdx = slices.Grow(colIdx, len(row))[:k+len(row)]
	val = slices.Grow(val, len(row))[:k+len(row)]
	for j, a := range row {
		colIdx[k], val[k] = j, a
		bits := math.Float64bits(a) << 1
		k += int((bits | -bits) >> 63)
	}
	clear(row)
	return colIdx[:k], val[:k]
}

// RowNNZ returns the number of stored entries in row r.
func (m *Matrix) RowNNZ(r int) int { return m.rowPtr[r+1] - m.rowPtr[r] }

// RowSum returns the sum of the stored values in row r.
func (m *Matrix) RowSum(r int) float64 {
	s := 0.0
	for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
		s += m.val[i]
	}
	return s
}

// MulVec computes y = M x. It panics when dimensions disagree. The dst
// slice is used when it has the right length, otherwise a new slice is
// allocated.
func (m *Matrix) MulVec(x, dst []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: matrix %dx%d, vector %d", m.rows, m.cols, len(x)))
	}
	if len(dst) != m.rows {
		dst = make([]float64, m.rows)
	}
	for r := 0; r < m.rows; r++ {
		s := 0.0
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			s += m.val[i] * x[m.colIdx[i]]
		}
		dst[r] = s
	}
	return dst
}

// MulVecT computes y = Mᵀ x without materializing the transpose.
func (m *Matrix) MulVecT(x, dst []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("sparse: MulVecT dimension mismatch: matrix %dx%d, vector %d", m.rows, m.cols, len(x)))
	}
	if len(dst) != m.cols {
		dst = make([]float64, m.cols)
	}
	for i := range dst {
		dst[i] = 0
	}
	for r := 0; r < m.rows; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			dst[m.colIdx[i]] += m.val[i] * xr
		}
	}
	return dst
}

// Transpose returns Mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := &Matrix{
		rows:   m.cols,
		cols:   m.rows,
		rowPtr: make([]int, m.cols+1),
		colIdx: make([]int, len(m.val)),
		val:    make([]float64, len(m.val)),
	}
	for _, c := range m.colIdx {
		t.rowPtr[c+1]++
	}
	for c := 0; c < m.cols; c++ {
		t.rowPtr[c+1] += t.rowPtr[c]
	}
	next := make([]int, m.cols)
	copy(next, t.rowPtr[:m.cols])
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			c := m.colIdx[i]
			p := next[c]
			t.colIdx[p] = r
			t.val[p] = m.val[i]
			next[c]++
		}
	}
	return t
}

// Scale returns s * M as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	out := &Matrix{rows: m.rows, cols: m.cols,
		rowPtr: append([]int(nil), m.rowPtr...),
		colIdx: append([]int(nil), m.colIdx...),
		val:    make([]float64, len(m.val)),
	}
	for i, v := range m.val {
		out.val[i] = s * v
	}
	return out
}

// RowNormalized returns a copy of M with every nonempty row scaled so its
// values sum to 1 (a row-stochastic matrix when all values are
// nonnegative). Rows whose sum is zero are left untouched.
func (m *Matrix) RowNormalized() *Matrix {
	out := m.Scale(1)
	for r := 0; r < m.rows; r++ {
		s := 0.0
		for i := out.rowPtr[r]; i < out.rowPtr[r+1]; i++ {
			s += out.val[i]
		}
		if s == 0 {
			continue
		}
		for i := out.rowPtr[r]; i < out.rowPtr[r+1]; i++ {
			out.val[i] /= s
		}
	}
	return out
}

// Add returns A + s*B for same-shaped matrices, by merging the two
// sorted row structures directly (no re-sorting).
func Add(a, b *Matrix, s float64) *Matrix {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("sparse: Add shape mismatch %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	m := &Matrix{
		rows:   a.rows,
		cols:   a.cols,
		rowPtr: make([]int, a.rows+1),
		colIdx: make([]int, 0, len(a.val)+len(b.val)),
		val:    make([]float64, 0, len(a.val)+len(b.val)),
	}
	push := func(c int, v float64) {
		if v != 0 {
			m.colIdx = append(m.colIdx, c)
			m.val = append(m.val, v)
		}
	}
	for r := 0; r < a.rows; r++ {
		ia, ea := a.rowPtr[r], a.rowPtr[r+1]
		ib, eb := b.rowPtr[r], b.rowPtr[r+1]
		for ia < ea || ib < eb {
			switch {
			case ib >= eb || (ia < ea && a.colIdx[ia] < b.colIdx[ib]):
				push(a.colIdx[ia], a.val[ia])
				ia++
			case ia >= ea || b.colIdx[ib] < a.colIdx[ia]:
				push(b.colIdx[ib], s*b.val[ib])
				ib++
			default:
				push(a.colIdx[ia], a.val[ia]+s*b.val[ib])
				ia++
				ib++
			}
		}
		m.rowPtr[r+1] = len(m.colIdx)
	}
	return m
}

// MulMat returns A · B. Used to form W Wᵀ style products on compact
// representations; complexity is O(Σ_r nnz(A_r) · avg nnz(B_row)). The
// result is assembled row-by-row directly into CSR form (rows are
// produced in order, so no global sort is needed).
func MulMat(a, b *Matrix) *Matrix {
	if a.cols != b.rows {
		panic(fmt.Sprintf("sparse: MulMat dimension mismatch %dx%d · %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	m := &Matrix{
		rows:   a.rows,
		cols:   b.cols,
		rowPtr: make([]int, a.rows+1),
	}
	// Dense scatter accumulator with a touched-column list: classic
	// Gustavson SpGEMM.
	acc := make([]float64, b.cols)
	touched := make([]int, 0, 64)
	seen := make([]bool, b.cols)
	for r := 0; r < a.rows; r++ {
		touched = touched[:0]
		for i := a.rowPtr[r]; i < a.rowPtr[r+1]; i++ {
			k := a.colIdx[i]
			av := a.val[i]
			for j := b.rowPtr[k]; j < b.rowPtr[k+1]; j++ {
				c := b.colIdx[j]
				if !seen[c] {
					seen[c] = true
					touched = append(touched, c)
				}
				acc[c] += av * b.val[j]
			}
		}
		sort.Ints(touched)
		for _, c := range touched {
			if acc[c] != 0 {
				m.colIdx = append(m.colIdx, c)
				m.val = append(m.val, acc[c])
			}
			acc[c] = 0
			seen[c] = false
		}
		m.rowPtr[r+1] = len(m.colIdx)
	}
	return m
}

// ScaleSym returns a copy of M with every stored entry (i, j)
// multiplied by f(i, j). Entries scaled to exactly zero are kept as
// explicit zeros (the sparsity structure is reused unchanged, which is
// what makes this cheaper than rebuilding).
func (m *Matrix) ScaleSym(f func(i, j int) float64) *Matrix {
	out := &Matrix{rows: m.rows, cols: m.cols,
		rowPtr: append([]int(nil), m.rowPtr...),
		colIdx: append([]int(nil), m.colIdx...),
		val:    make([]float64, len(m.val)),
	}
	for r := 0; r < m.rows; r++ {
		for i := m.rowPtr[r]; i < m.rowPtr[r+1]; i++ {
			out.val[i] = m.val[i] * f(r, m.colIdx[i])
		}
	}
	return out
}

// Diag returns the main diagonal of a square matrix.
func (m *Matrix) Diag() []float64 {
	if m.rows != m.cols {
		panic("sparse: Diag on non-square matrix")
	}
	d := make([]float64, m.rows)
	for r := 0; r < m.rows; r++ {
		d[r] = m.At(r, r)
	}
	return d
}

// MaxAbs returns the largest absolute stored value, zero for an empty
// matrix.
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.val {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// Equal reports whether two matrices have the same shape and the same
// entries within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for r := 0; r < a.rows; r++ {
		ia, ea := a.rowPtr[r], a.rowPtr[r+1]
		ib, eb := b.rowPtr[r], b.rowPtr[r+1]
		for ia < ea || ib < eb {
			switch {
			case ib >= eb || (ia < ea && a.colIdx[ia] < b.colIdx[ib]):
				if math.Abs(a.val[ia]) > tol {
					return false
				}
				ia++
			case ia >= ea || b.colIdx[ib] < a.colIdx[ia]:
				if math.Abs(b.val[ib]) > tol {
					return false
				}
				ib++
			default:
				if math.Abs(a.val[ia]-b.val[ib]) > tol {
					return false
				}
				ia++
				ib++
			}
		}
	}
	return true
}
