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
// existing backing storage when it is large enough.
func (m *Matrix) Reset(n int) {
	if n < 0 {
		n = 0
	}
	m.n = n
	if cap(m.data) < n*n {
		m.data = make([]float64, n*n)
		return
	}
	m.data = m.data[:n*n]
	clear(m.data)
}

// RowView returns row i without copying. The slice aliases the
// matrix: it is invalidated by Reset and writes through it
// mutate the matrix. Hot loops (grouping affinity updates) use it to
// stream a row sequentially instead of calling At per entry.
func (m *Matrix) RowView(i int) []float64 {
	return m.data[i*m.n : (i+1)*m.n]
}

// Symmetrized returns a new matrix S with S[i][j] = S[j][i] =
// m[i][j]+m[j][i] for i != j and zero diagonal. Placement algorithms
// work on symmetrized volumes.
func (m *Matrix) Symmetrized() *Matrix {
	n := m.n
	s := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				s.data[i*n+j] = m.data[i*n+j] + m.data[j*n+i]
			}
		}
	}
	return s
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
			var idx int
			if rel, ok := logShade(m.At(i, j), mx); ok {
				idx = min(1+int(rel*float64(len(shades)-2)), len(shades)-1)
			}
			b.WriteByte(shades[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// logShade places a positive volume v on the renderings' logarithmic
// scale: ~6 decades below the largest entry mx map onto [0, 1].
func logShade(v, mx float64) (float64, bool) {
	if v <= 0 || mx <= 0 {
		return 0, false
	}
	return max(0, 1-(math.Log10(mx)-math.Log10(v))/6), true
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
			shade := byte(255) // white background
			if rel, ok := logShade(m.At(i, j), mx); ok {
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

// HeaviestPairs returns the entity pairs (i<j) with a strictly
// positive symmetrized volume, heaviest first with ties in (i,j) order,
// up to limit pairs (all if limit <= 0).
func (m *Matrix) HeaviestPairs(limit int) []Pair {
	var pairs []Pair
	for i := 0; i < m.n; i++ {
		for j := i + 1; j < m.n; j++ {
			if v := m.data[i*m.n+j] + m.data[j*m.n+i]; v > 0 {
				pairs = append(pairs, Pair{I: i, J: j, Volume: v})
			}
		}
	}
	// Listed in (i,j) order, so a stable sort on volume breaks ties.
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].Volume > pairs[b].Volume })
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
