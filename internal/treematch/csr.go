package treematch

import (
	"fmt"
	"math"
	"slices"

	"orwlplace/internal/comm"
)

// symCSR is a compressed-sparse-row matrix: row i holds its nonzero
// columns ascending in col[ptr[i]:ptr[i+1]], with their values at the
// same positions of val. Every level of the mapping pipeline runs on
// one: the symmetrized input, its padding and control-thread rows, and
// each aggregation. No diagonal entry is stored — nothing reads it.
type symCSR struct {
	ptr []int
	col []int
	val []float64
}

func (c *symCSR) order() int { return len(c.ptr) - 1 }

// reset empties the matrix to order 0, keeping its storage.
func (c *symCSR) reset() {
	c.ptr = append(c.ptr[:0], 0)
	c.col = c.col[:0]
	c.val = c.val[:0]
}

// push appends (j, v) to the row being built; endRow closes it.
func (c *symCSR) push(j int, v float64) {
	c.col = append(c.col, j)
	c.val = append(c.val, v)
}

func (c *symCSR) endRow() { c.ptr = append(c.ptr, len(c.col)) }

// rowSum is the row's total volume, summed in column order.
func (c *symCSR) rowSum(i int) float64 {
	var s float64
	for _, v := range c.val[c.ptr[i]:c.ptr[i+1]] {
		s += v
	}
	return s
}

// densify writes the matrix into an order² row-major slab for the
// engine that indexes cells: the exhaustive DP.
func (c *symCSR) densify(buf *[]float64) []float64 {
	n := c.order()
	w := grow(buf, n*n)
	clear(w)
	for i := 0; i < n; i++ {
		for k := c.ptr[i]; k < c.ptr[i+1]; k++ {
			w[i*n+c.col[k]] = c.val[k]
		}
	}
	return w
}

// symScratch is the scratch of one symmetrization: the raw rows of the
// input and their transpose.
type symScratch struct {
	raw, tr symCSR
	fill    []int
}

// symmetrize writes A+Aᵀ into dst in O(nnz + n): the nonzeros of a are
// gathered row by row, transposed by a counting sort (which leaves every
// transposed row ascending), and each row is merged with its transpose.
// A pair present on one side only keeps that side's value, so every
// stored cell is exactly a[i][j]+a[j][i]. ±0 cells and the diagonal
// carry no traffic and are skipped.
//
// With tasks non-nil, the result is the principal submatrix over tasks
// (ascending global ids), renumbered by position; local maps a global id
// to its position, -1 outside. With check set, a cell that is NaN, ±Inf
// or negative is refused with an error naming it.
func (sc *symScratch) symmetrize(dst *symCSR, a comm.Affinity, tasks, local []int, check bool) error {
	rows := a.Order()
	if tasks != nil {
		rows = len(tasks)
	}
	raw := &sc.raw
	raw.reset()
	colNNZ := grow(&sc.fill, rows+1)
	clear(colNNZ)
	var bad error
	var i, g int
	// One closure for every row: a literal inside the loop would be
	// allocated per row, since ForEachRow is an interface call.
	emit := func(j int, v float64) {
		gj := j
		if tasks != nil {
			if j = local[j]; j < 0 {
				return
			}
		}
		if v == 0 || j == i {
			return
		}
		if check && bad == nil && !(v >= 0 && v <= math.MaxFloat64) {
			bad = fmt.Errorf("treematch: cell (%d,%d) holds %v: volumes must be finite and non-negative", g, gj, v)
		}
		raw.push(j, v)
		colNNZ[j+1]++
	}
	for i = 0; i < rows; i++ {
		g = i
		if tasks != nil {
			g = tasks[i]
		}
		a.ForEachRow(g, emit)
		raw.endRow()
	}
	if bad != nil {
		return bad
	}

	// Transpose: colNNZ becomes Aᵀ's row pointer, then its fill cursor.
	tr := &sc.tr
	for j := 0; j < rows; j++ {
		colNNZ[j+1] += colNNZ[j]
	}
	tr.ptr = append(tr.ptr[:0], colNNZ...)
	nnz := len(raw.col)
	tr.col = grow(&tr.col, nnz)
	tr.val = grow(&tr.val, nnz)
	for i := 0; i < rows; i++ {
		for k := raw.ptr[i]; k < raw.ptr[i+1]; k++ {
			j := raw.col[k]
			at := colNNZ[j]
			colNNZ[j]++
			tr.col[at], tr.val[at] = i, raw.val[k]
		}
	}

	dst.reset()
	dst.ptr = slices.Grow(dst.ptr, rows)
	dst.col = slices.Grow(dst.col, 2*nnz)
	dst.val = slices.Grow(dst.val, 2*nnz)
	for i := 0; i < rows; i++ {
		x, xEnd := raw.ptr[i], raw.ptr[i+1]
		y, yEnd := tr.ptr[i], tr.ptr[i+1]
		for x < xEnd || y < yEnd {
			var j int
			var v float64
			switch {
			case y == yEnd || (x < xEnd && raw.col[x] < tr.col[y]):
				j, v = raw.col[x], raw.val[x]
				x++
			case x == xEnd || tr.col[y] < raw.col[x]:
				j, v = tr.col[y], tr.val[y]
				y++
			default:
				j, v = raw.col[x], raw.val[x]+tr.val[y]
				x++
				y++
			}
			if v != 0 {
				dst.push(j, v)
			}
		}
		dst.endRow()
	}
	return nil
}

// induceDoubled writes into dst the principal submatrix of the
// symmetric src over tasks (ascending ids, renumbered by position),
// every value doubled: exactly what symmetrizing that submatrix gives,
// without the merge. local is scratch of length src.order(), all -1 on
// entry and on return.
func induceDoubled(dst, src *symCSR, tasks, local []int) {
	for li, g := range tasks {
		local[g] = li
	}
	dst.reset()
	for _, g := range tasks {
		for k := src.ptr[g]; k < src.ptr[g+1]; k++ {
			if lj := local[src.col[k]]; lj >= 0 {
				dst.push(lj, src.val[k]+src.val[k])
			}
		}
		dst.endRow()
	}
	for _, g := range tasks {
		local[g] = -1
	}
}

// aggregate merges the entities of src into groups, writing into dst the
// matrix whose entry (a, b) is the volume between groups a and b
// (AggregateComMatrix of Algorithm 1), in O(nnz + order). Volumes are
// positive, so a zero accumulator means an untouched one.
//
// The summation order is fixed, so the result is bit-identical to the
// dense reference on any input: each member i of group a (in member
// order) contributes one partial sum per destination group b, and that
// partial is the sum of i's cells at b's even member positions plus the
// sum at its odd positions, each in member order. Zero cells add
// nothing to a float sum, so skipping them changes no bit.
func aggregate(dst, src *symCSR, groups [][]int, ws *mapWorkspace) {
	groupOf, odd := grow(&ws.groupOf, src.order()), grow(&ws.odd, src.order())
	for g, members := range groups {
		for x, i := range members {
			groupOf[i], odd[i] = g, x&1 == 1
		}
	}
	k := len(groups)
	even, oddSum, acc := grow(&ws.even, k), grow(&ws.oddSum, k), grow(&ws.acc, k)
	clear(even)
	clear(oddSum)
	clear(acc)
	rowHit, grpHit := ws.rowHit[:0], ws.grpHit[:0]
	dst.reset()
	for a, members := range groups {
		for _, i := range members {
			for x := src.ptr[i]; x < src.ptr[i+1]; x++ {
				j := src.col[x]
				b := groupOf[j]
				if b == a {
					continue // intra-group volume: the diagonal, never read
				}
				if even[b] == 0 && oddSum[b] == 0 {
					rowHit = append(rowHit, b)
				}
				if odd[j] {
					oddSum[b] += src.val[x]
				} else {
					even[b] += src.val[x]
				}
			}
			for _, b := range rowHit {
				if acc[b] == 0 {
					grpHit = append(grpHit, b)
				}
				acc[b] += even[b] + oddSum[b]
				even[b], oddSum[b] = 0, 0
			}
			rowHit = rowHit[:0]
		}
		slices.Sort(grpHit)
		for _, b := range grpHit {
			dst.push(b, acc[b])
			acc[b] = 0
		}
		dst.endRow()
		grpHit = grpHit[:0]
	}
	ws.rowHit, ws.grpHit = rowHit, grpHit
}
