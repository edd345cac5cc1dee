package comm

// Sparse is a row-compressed communication matrix: each row holds its
// nonzeros as a column-sorted slice, so storage and iteration are
// O(nnz) instead of O(n²), iteration is in row-major ascending order
// with no per-call sorting, and nothing on the read or the append path
// hashes. It implements the same Affinity surface as the dense *Matrix;
// the two representations are interchangeable (see
// FuzzSparseDenseEquivalence).
//
// Bulk producers size the rows (NewSparseSized) and fill them row by
// row in column order with Append, O(1) per cell and no search. Set and
// Add search the row; an insert mid-row shifts its tail.
//
// Exact zeros are not stored: Set with 0 and Add sequences that cancel
// to 0 delete the entry, so NNZ and iteration reflect the true nonzero
// structure.
type Sparse struct {
	n    int
	rows [][]sparseEntry
}

// sparseEntry is one stored nonzero of a row.
type sparseEntry struct {
	j int
	v float64
}

// NewSparse returns an n x n zero sparse matrix.
func NewSparse(n int) *Sparse {
	if n < 0 {
		n = 0
	}
	return &Sparse{n: n, rows: make([][]sparseEntry, n)}
}

// NewSparseSized returns a zero sparse matrix of order len(rowNNZ)
// whose row i has room for rowNNZ[i] nonzeros, carved out of one
// allocation: a producer that counted its rows (a wire decoder, a
// window snapshot) then fills them without growing anything. Rows may
// still grow past the reservation; they reallocate on their own.
func NewSparseSized(rowNNZ []int) *Sparse {
	s := new(Sparse)
	s.ResetSized(rowNNZ)
	return s
}

// ResetSized is Reset to order len(rowNNZ) leaving row i room for
// rowNNZ[i] nonzeros: rows short of it are carved out of one allocation,
// the others keep their storage, so a same-shaped refill allocates nothing.
func (s *Sparse) ResetSized(rowNNZ []int) {
	s.Reset(len(rowNNZ))
	short := 0
	for i, k := range rowNNZ {
		if cap(s.rows[i]) < k {
			short += k
		}
	}
	slab := make([]sparseEntry, short)
	for i, k := range rowNNZ {
		if cap(s.rows[i]) < k {
			s.rows[i], slab = slab[:0:k], slab[k:]
		}
	}
}

// Order returns the matrix order.
func (s *Sparse) Order() int { return s.n }

// find returns the position of column j in row i, or where it would be
// inserted. The append position is checked first: bulk fills arrive in
// ascending column order.
func (s *Sparse) find(i, j int) (int, bool) {
	r := s.rows[i]
	if len(r) == 0 || r[len(r)-1].j < j {
		return len(r), false
	}
	lo, hi := 0, len(r)-1 // r[hi].j >= j
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); r[mid].j < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, r[lo].j == j
}

// put stores v at position pos of row i: overwriting (found), deleting
// (found, v == 0) or inserting (not found, v != 0).
func (s *Sparse) put(i, pos int, found bool, j int, v float64) {
	r := s.rows[i]
	switch {
	case found && v == 0:
		s.rows[i] = append(r[:pos], r[pos+1:]...)
	case found:
		r[pos].v = v
	case v != 0:
		if cap(r) == 0 {
			// A task that talks at all talks to a few neighbours: start
			// the row there instead of growing it 1, 2, 4, 8.
			r = make([]sparseEntry, 0, 8)
		}
		r = append(r, sparseEntry{})
		copy(r[pos+1:], r[pos:])
		r[pos] = sparseEntry{j: j, v: v}
		s.rows[i] = r
	}
}

// At returns entry (i,j).
func (s *Sparse) At(i, j int) float64 {
	if pos, ok := s.find(i, j); ok {
		return s.rows[i][pos].v
	}
	return 0
}

// Set stores v at (i,j), deleting the entry when v is zero.
func (s *Sparse) Set(i, j int, v float64) {
	pos, found := s.find(i, j)
	s.put(i, pos, found, j, v)
}

// Add accumulates v into (i,j).
func (s *Sparse) Add(i, j int, v float64) {
	if v == 0 {
		return
	}
	pos, found := s.find(i, j)
	if found {
		v += s.rows[i][pos].v
	}
	s.put(i, pos, found, j, v)
}

// Append stores v at (i,j) when j lies past the last column of row i,
// with no search: the O(1) fill of a producer that walks its cells row
// by row in column order. It reports false, storing nothing, when j
// does not lie past that column. A zero v stores nothing, as in Set.
func (s *Sparse) Append(i, j int, v float64) bool {
	r := s.rows[i]
	switch k := len(r); {
	case k > 0 && r[k-1].j >= j:
		return false
	case v != 0 && k < cap(r):
		s.rows[i] = s.rows[i][:k+1] // a length-only store
		r[:k+1][k] = sparseEntry{j: j, v: v}
	default:
		s.put(i, k, false, j, v)
	}
	return true
}

// AddSym accumulates v into both (i,j) and (j,i).
func (s *Sparse) AddSym(i, j int, v float64) {
	if i == j {
		s.Add(i, j, v)
		return
	}
	s.Add(i, j, v)
	s.Add(j, i, v)
}

// Total returns the sum of all entries (row-major, so deterministic).
func (s *Sparse) Total() float64 {
	var t float64
	for _, r := range s.rows {
		for _, e := range r {
			t += e.v
		}
	}
	return t
}

// NNZ returns the number of stored (nonzero) entries.
func (s *Sparse) NNZ() int {
	nz := 0
	for _, r := range s.rows {
		nz += len(r)
	}
	return nz
}

// ForEachRow calls fn for every nonzero (j, v) of row i in ascending
// column order — the stored order, so the walk neither sorts nor
// allocates. fn must not mutate row i of the receiver.
func (s *Sparse) ForEachRow(i int, fn func(j int, v float64)) {
	for _, e := range s.rows[i] {
		fn(e.j, e.v)
	}
}

// ForEach calls fn for every nonzero (i, j, v), row-major ascending
// (the stored order; the Affinity contract leaves it unspecified). fn
// must not mutate the receiver.
func (s *Sparse) ForEach(fn func(i, j int, v float64)) {
	for i, r := range s.rows {
		for _, e := range r {
			fn(i, e.j, e.v)
		}
	}
}

// Reset returns the matrix to an n x n all-zero state, reusing the row
// table (and the per-row storage up to the new order) so steady-state
// windows allocate nothing.
func (s *Sparse) Reset(n int) {
	if n < 0 {
		n = 0
	}
	if cap(s.rows) < n {
		s.rows = make([][]sparseEntry, n)
	} else {
		s.rows = s.rows[:n]
		for i := range s.rows {
			s.rows[i] = s.rows[i][:0]
		}
	}
	s.n = n
}

// Clone returns a deep copy, its rows carved out of one allocation.
func (s *Sparse) Clone() *Sparse {
	c := NewSparse(s.n)
	slab := make([]sparseEntry, 0, s.NNZ())
	for i, r := range s.rows {
		slab = append(slab, r...)
		c.rows[i] = slab[len(slab)-len(r) : len(slab) : len(slab)]
	}
	return c
}

// CloneAffinity returns a deep copy as an Affinity.
func (s *Sparse) CloneAffinity() Affinity { return s.Clone() }

// Dense materializes the sparse matrix as a dense one: O(n²) memory,
// for interop with consumers that have not been lifted onto Affinity.
func (s *Sparse) Dense() *Matrix {
	m := NewMatrix(s.n)
	for i, r := range s.rows {
		row := m.data[i*s.n : (i+1)*s.n]
		for _, e := range r {
			row[e.j] = e.v
		}
	}
	return m
}

// SparseFromMatrix converts a dense matrix to the sparse
// representation, keeping only nonzeros.
func SparseFromMatrix(m *Matrix) *Sparse {
	s := NewSparse(m.Order())
	for i := 0; i < m.n; i++ {
		for j, v := range m.RowView(i) {
			if v != 0 {
				s.rows[i] = append(s.rows[i], sparseEntry{j: j, v: v})
			}
		}
	}
	return s
}
