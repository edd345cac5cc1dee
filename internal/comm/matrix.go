// Package comm provides communication matrices: square matrices whose
// entry (i,j) is the volume of data (in bytes) exchanged between
// computing entities i and j during one execution or iteration.
//
// The ORWL runtime derives such a matrix from the task–location graph
// (§IV-A of the paper); TreeMatch consumes it to group entities by
// affinity; the performance simulator uses it to cost a placement.
package comm

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Matrix is a dense square communication matrix. Entry (i,j) holds the
// volume sent from entity i to entity j; most consumers symmetrize it
// first since placement cares about total exchanged volume.
type Matrix struct {
	n    int
	data []float64
}

// NewMatrix returns an n x n zero matrix.
func NewMatrix(n int) *Matrix {
	if n < 0 {
		n = 0
	}
	return &Matrix{n: n, data: make([]float64, n*n)}
}

// FromRows builds a matrix from row slices; all rows must have length
// len(rows).
func FromRows(rows [][]float64) (*Matrix, error) {
	n := len(rows)
	m := NewMatrix(n)
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("comm: row %d has %d entries, want %d", i, len(r), n)
		}
		copy(m.data[i*n:(i+1)*n], r)
	}
	return m, nil
}

// Order returns the matrix order (number of entities).
func (m *Matrix) Order() int { return m.n }

// At returns entry (i,j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.n+j] }

// Set stores v at (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.n+j] = v }

// Add accumulates v into (i,j).
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.n+j] += v }

// AddSym accumulates v into both (i,j) and (j,i).
func (m *Matrix) AddSym(i, j int, v float64) {
	if i == j {
		m.data[i*m.n+j] += v
		return
	}
	m.data[i*m.n+j] += v
	m.data[j*m.n+i] += v
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.n)
	copy(c.data, m.data)
	return c
}

// Reset returns the matrix to an n x n all-zero state, reusing the
// existing backing storage when it is large enough. It is the
// primitive behind the *Into variants: a matrix owned by a workspace
// is Reset instead of reallocated, so a multi-level mapping pipeline
// does O(1) matrix allocations.
func (m *Matrix) Reset(n int) {
	m.resize(n)
	clear(m.data)
}

// resize sets the order to n reusing storage; the entries are left
// unspecified (callers overwrite every cell or clear explicitly).
func (m *Matrix) resize(n int) {
	if n < 0 {
		n = 0
	}
	m.n = n
	if cap(m.data) < n*n {
		m.data = make([]float64, n*n)
		return
	}
	m.data = m.data[:n*n]
}

// RowView returns row i without copying. The slice aliases the
// matrix: it is invalidated by Reset/resize and writes through it
// mutate the matrix. Hot loops (grouping affinity updates) use it to
// stream a row sequentially instead of calling At per entry.
func (m *Matrix) RowView(i int) []float64 {
	return m.data[i*m.n : (i+1)*m.n]
}

// Symmetrized returns a new matrix S with S[i][j] = S[j][i] =
// m[i][j]+m[j][i] for i != j and zero diagonal. Placement algorithms
// work on symmetrized volumes.
func (m *Matrix) Symmetrized() *Matrix {
	return m.SymmetrizedInto(NewMatrix(0))
}

// SymmetrizedInto writes the symmetrized matrix into dst (resized and
// fully overwritten) and returns dst. dst must not be m itself.
func (m *Matrix) SymmetrizedInto(dst *Matrix) *Matrix {
	if dst == m {
		panic("comm: SymmetrizedInto aliases the receiver")
	}
	n := m.n
	dst.resize(n)
	// Row-major writes with a constant-stride transposed read: stores
	// stay sequential (a strided store costs an RFO per cache line) and
	// the fixed-stride loads run ahead of the hardware prefetcher.
	data := m.data
	for i := 0; i < n; i++ {
		row := data[i*n : (i+1)*n]
		out := dst.data[i*n : (i+1)*n]
		idx := i
		for j, v := range row {
			out[j] = v + data[idx]
			idx += n
		}
		out[i] = 0
	}
	return dst
}

// IsSymmetric reports whether m equals its transpose.
func (m *Matrix) IsSymmetric() bool {
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			if m.data[i*m.n+j] != m.data[j*m.n+i] {
				return false
			}
		}
	}
	return true
}

// Total returns the sum of all entries.
func (m *Matrix) Total() float64 {
	var t float64
	for _, v := range m.data {
		t += v
	}
	return t
}

// MaxEntry returns the largest entry.
func (m *Matrix) MaxEntry() float64 {
	mx := math.Inf(-1)
	if len(m.data) == 0 {
		return 0
	}
	for _, v := range m.data {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// ExtendInto writes into dst (resized and fully overwritten) the matrix
// of order newOrder whose leading principal submatrix is m and whose
// remaining entries are zero, and returns dst. It is the primitive used
// to add virtual entities (control threads, padding for non-divisible
// group sizes). dst must not be m itself.
func (m *Matrix) ExtendInto(dst *Matrix, newOrder int) *Matrix {
	if dst == m {
		panic("comm: ExtendInto aliases the receiver")
	}
	if newOrder < m.n {
		newOrder = m.n
	}
	dst.Reset(newOrder)
	for i := 0; i < m.n; i++ {
		copy(dst.data[i*newOrder:i*newOrder+m.n], m.data[i*m.n:(i+1)*m.n])
	}
	return dst
}

// Permuted returns P, with P[i][j] = m[perm[i]][perm[j]]: the matrix
// seen after renumbering entity perm[i] as i.
func (m *Matrix) Permuted(perm []int) (*Matrix, error) {
	if len(perm) != m.n {
		return nil, fmt.Errorf("comm: permutation length %d, want %d", len(perm), m.n)
	}
	seen := make([]bool, m.n)
	for _, p := range perm {
		if p < 0 || p >= m.n || seen[p] {
			return nil, fmt.Errorf("comm: invalid permutation %v", perm)
		}
		seen[p] = true
	}
	out := NewMatrix(m.n)
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			out.data[i*m.n+j] = m.data[perm[i]*m.n+perm[j]]
		}
	}
	return out, nil
}

// AggregateInto merges entities into groups, writing the result into dst
// (resized and fully overwritten): groups[g] lists the entity indexes of
// group g, and the result R has order len(groups) with R[a][b] = sum
// over i in groups[a], j in groups[b] of m[i][j] (diagonal excluded for
// a == b). This is AggregateComMatrix of Algorithm 1. groupOf is
// optional scratch of length >= Order() (allocated when nil), so a
// workspace-driven pipeline aggregates without per-level allocations.
// dst must not be m itself.
func (m *Matrix) AggregateInto(dst *Matrix, groups [][]int, groupOf []int) error {
	if dst == m {
		panic("comm: AggregateInto aliases the receiver")
	}
	n := m.n
	if len(groupOf) < n {
		groupOf = make([]int, n)
	}
	groupOf = groupOf[:n]
	for i := range groupOf {
		groupOf[i] = -1
	}
	for a, ga := range groups {
		for _, i := range ga {
			if i < 0 || i >= n {
				return fmt.Errorf("comm: aggregate: entity %d out of range", i)
			}
			if groupOf[i] != -1 {
				return fmt.Errorf("comm: aggregate: entity %d in two groups", i)
			}
			groupOf[i] = a
		}
	}
	for i, g := range groupOf {
		if g == -1 {
			return fmt.Errorf("comm: aggregate: entity %d not in any group", i)
		}
	}
	k := len(groups)
	dst.Reset(k)
	// Per-block accumulation into registers: summing a destination
	// cell through memory serialises on the FP add latency (every
	// add depends on the previous store), so each (row, group) partial
	// sum is built in a register and committed once.
	for a, ga := range groups {
		drow := dst.data[a*k : (a+1)*k]
		for _, i := range ga {
			row := m.data[i*n : (i+1)*n]
			for b, gb := range groups {
				var s float64
				if b == a {
					for _, j := range gb {
						if j != i {
							s += row[j]
						}
					}
				} else {
					// Two accumulators hide the FP-add latency of the
					// gather (a single running sum serialises on it).
					var s1 float64
					x := 0
					for ; x+1 < len(gb); x += 2 {
						s += row[gb[x]]
						s1 += row[gb[x+1]]
					}
					if x < len(gb) {
						s += row[gb[x]]
					}
					s += s1
				}
				drow[b] += s
			}
		}
	}
	return nil
}

// String renders the matrix compactly, one row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderGrayScale renders the matrix like the paper's Fig. 1: a
// character raster on a logarithmic gray scale, darkest for the largest
// volumes. Useful to eyeball the structure of an application.
func (m *Matrix) RenderGrayScale() string {
	shades := []byte(" .:-=+*#%@")
	mx := m.MaxEntry()
	var b strings.Builder
	fmt.Fprintf(&b, "comm matrix %dx%d (log gray scale, max=%g)\n", m.n, m.n, mx)
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			v := m.At(i, j)
			var idx int
			if v > 0 && mx > 0 {
				// Map log10(v) over ~6 decades onto the ramp.
				rel := 1 - (math.Log10(mx)-math.Log10(v))/6
				if rel < 0 {
					rel = 0
				}
				idx = 1 + int(rel*float64(len(shades)-2))
				if idx >= len(shades) {
					idx = len(shades) - 1
				}
			}
			b.WriteByte(shades[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderPGM encodes the matrix as a binary PGM (P5) gray-scale image
// on the same logarithmic scale as RenderGrayScale, one pixel per
// entry with dark = heavy, so Fig. 1 can be regenerated as an actual
// image file. scale repeats each entry into a scale x scale pixel
// block (min 1).
func (m *Matrix) RenderPGM(scale int) []byte {
	if scale < 1 {
		scale = 1
	}
	side := m.n * scale
	header := fmt.Sprintf("P5\n%d %d\n255\n", side, side)
	out := make([]byte, 0, len(header)+side*side)
	out = append(out, header...)
	mx := m.MaxEntry()
	row := make([]byte, side)
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			v := m.At(i, j)
			shade := byte(255) // white background
			if v > 0 && mx > 0 {
				rel := 1 - (math.Log10(mx)-math.Log10(v))/6
				if rel < 0 {
					rel = 0
				}
				shade = byte(200 * (1 - rel))
			}
			for s := 0; s < scale; s++ {
				row[j*scale+s] = shade
			}
		}
		for s := 0; s < scale; s++ {
			out = append(out, row...)
		}
	}
	return out
}

// HeaviestPairs returns the entity pairs (i<j) sorted by decreasing
// symmetrized volume, up to limit pairs (all if limit <= 0). Ties are
// broken by (i,j) order so the result is deterministic.
//
// Contract: only pairs with a strictly positive symmetrized volume are
// returned — zero (non-communicating) and negative pairs are skipped,
// so on a sparse matrix the result holds the nonzero pairs only, never
// all n² candidates. Callers that need every pair must enumerate the
// matrix themselves; callers that only consume the heaviest few (the
// greedy grouping engine seeds) should prefer a lazily-popped heap
// over sorting the full list.
func (m *Matrix) HeaviestPairs(limit int) []Pair {
	// Count first so the slice is allocated exactly once at the nonzero
	// size instead of growing through the append doubling schedule.
	nz := 0
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			if m.data[i*m.n+j]+m.data[j*m.n+i] > 0 {
				nz++
			}
		}
	}
	pairs := make([]Pair, 0, nz)
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			v := m.data[i*m.n+j] + m.data[j*m.n+i]
			if v > 0 {
				pairs = append(pairs, Pair{I: i, J: j, Volume: v})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].Volume != pairs[b].Volume {
			return pairs[a].Volume > pairs[b].Volume
		}
		if pairs[a].I != pairs[b].I {
			return pairs[a].I < pairs[b].I
		}
		return pairs[a].J < pairs[b].J
	})
	if limit > 0 && len(pairs) > limit {
		pairs = pairs[:limit]
	}
	return pairs
}

// Pair is an entity pair with its exchanged volume.
type Pair struct {
	I, J   int
	Volume float64
}
