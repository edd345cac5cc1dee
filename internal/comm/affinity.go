package comm

// Affinity is the representation-independent surface of a communication
// matrix: the operations the mapping pipeline actually needs, satisfied
// by both the dense *Matrix and the sorted-rows *Sparse. Callers that
// hold an Affinity never commit to an O(n²) layout — a 10k-task program
// whose tasks each talk to a handful of neighbours stays O(nnz) end to
// end (extraction, mapping, fingerprinting).
//
// Like *Matrix, implementations are not safe for concurrent mutation.
type Affinity interface {
	// Order is the number of entities (matrix order).
	Order() int
	// At returns entry (i,j).
	At(i, j int) float64
	// Set stores v at (i,j).
	Set(i, j int, v float64)
	// Add accumulates v into (i,j).
	Add(i, j int, v float64)
	// AddSym accumulates v into both (i,j) and (j,i).
	AddSym(i, j int, v float64)
	// Total is the sum of all entries.
	Total() float64
	// NNZ is the number of nonzero entries. Dense matrices count in
	// O(n²); sparse ones answer in O(rows).
	NNZ() int
	// ForEachRow calls fn for every nonzero (j, v) of row i, in
	// ascending column order. The ascending order is part of the
	// contract: deterministic algorithms (greedy partitioning,
	// fingerprinting) rely on it.
	ForEachRow(i int, fn func(j int, v float64))
	// ForEachPair calls fn once per unordered off-diagonal pair of A+Aᵀ,
	// row-major at its charging cell: the upper cell (i < j) with the
	// mirror folded in, v = a[i][j] + a[j][i], or else the lone lower
	// cell (i > j), v = a[i][j]. −0 counts as absent, as in ForEachRow.
	ForEachPair(fn func(i, j int, v float64))
	// ForEach calls fn for every nonzero (i, j, v) in unspecified
	// order: the bulk-extraction primitive for consumers that need no
	// row order (merges, copies).
	ForEach(fn func(i, j int, v float64))
	// Reset returns the affinity to an n x n all-zero state, reusing
	// storage where possible.
	Reset(n int)
	// CloneAffinity returns a deep copy with the same representation.
	CloneAffinity() Affinity
	// Dense materializes the affinity as a dense matrix. For *Matrix it
	// returns the receiver (no copy); for *Sparse it allocates O(n²) —
	// callers on the sparse path must avoid it above small orders.
	Dense() *Matrix
}

// DenseOrderThreshold is the order up to which NewAffinity picks the
// dense representation: below it the flat n² slab (2 MiB of float64 at
// 512) wins on constant factors and cache behaviour, above it the
// sorted-rows representation keeps memory O(nnz). The crossover is a
// density argument — observed HPC communication graphs hold O(n)
// nonzeros, so at 512+ tasks the dense slab is overwhelmingly zeros.
const DenseOrderThreshold = 512

// NewAffinity returns an empty n x n affinity in the representation
// appropriate for the order: dense up to DenseOrderThreshold, sparse
// above it.
func NewAffinity(n int) Affinity {
	if n <= DenseOrderThreshold {
		return NewMatrix(n)
	}
	return NewSparse(n)
}

// NilAffinity reports whether a holds no matrix: the nil interface, or
// a nil *Matrix / *Sparse wrapped in it — which a plain a == nil misses
// as soon as a caller passes a typed nil pointer through an Affinity
// parameter.
func NilAffinity(a Affinity) bool {
	switch v := a.(type) {
	case nil:
		return true
	case *Matrix:
		return v == nil
	case *Sparse:
		return v == nil
	}
	return false
}

// Dense-side conformance. Order/At/Set/Add/AddSym/Total/Reset are the
// existing methods; the remainder follows.

// NNZ counts the nonzero entries (O(n²) on the dense representation).
func (m *Matrix) NNZ() int {
	nz := 0
	for _, v := range m.data {
		if v != 0 {
			nz++
		}
	}
	return nz
}

// ForEachRow calls fn for every nonzero of row i in ascending column
// order.
func (m *Matrix) ForEachRow(i int, fn func(j int, v float64)) {
	for j, v := range m.data[i*m.n : (i+1)*m.n] {
		if v != 0 {
			fn(j, v)
		}
	}
}

// ForEach calls fn for every nonzero (i, j, v), row-major (the dense
// layout's natural order; callers must not rely on it).
func (m *Matrix) ForEach(fn func(i, j int, v float64)) {
	for i := 0; i < m.n; i++ {
		for j, v := range m.data[i*m.n : (i+1)*m.n] {
			if v != 0 {
				fn(i, j, v)
			}
		}
	}
}

// ForEachPair calls fn for every pair at its charging cell (see
// Affinity), reading each mirror in O(1).
func (m *Matrix) ForEachPair(fn func(i, j int, v float64)) {
	for i := 0; i < m.n; i++ {
		for j, v := range m.data[i*m.n : (i+1)*m.n] {
			switch mirror := m.data[j*m.n+i]; {
			case v == 0 || j == i:
			case j > i:
				fn(i, j, v+mirror)
			case mirror == 0:
				fn(i, j, v)
			}
		}
	}
}

// CloneAffinity returns a deep copy as an Affinity.
func (m *Matrix) CloneAffinity() Affinity { return m.Clone() }

// Dense returns the receiver: the dense matrix is its own dense form.
func (m *Matrix) Dense() *Matrix { return m }
