package codec

import (
	"fmt"
	"math"

	"orwlplace/internal/comm"
)

// getSparseBodyTwoWalk is the reference getSparseBody must equal: the
// same decoder walking the body twice, once to validate and count and
// once to fill, with no run scratch. It folds comm.Fingerprint from the
// runs: O(runs + n), never a pass over the zero cells. The body is
// validated in full — every run, and the cell
// count they claim (one triplet can claim all n²) — before the target
// exists. Let m = min(n, MaxMatrixOrder): the body decodes sparse iff
// its runs cover at most m²/8 cells and hold no -0 cell (which sparse
// storage cannot hold); otherwise it decodes dense up to order
// MaxMatrixOrder and is refused above it. No body allocates more than
// the 8·m² bytes of a dense order-m matrix.
func getSparseBodyTwoWalk(src []byte, maxOrder int, dst *comm.Sparse) (comm.Affinity, uint64, []byte, error) {
	n, runs, body, err := getSparseHeader(src, maxOrder)
	if err != nil {
		return nil, 0, nil, err
	}
	var rowNNZ []int
	if dst == nil {
		rowNNZ = make([]int, n)
	}
	nnz, negZero := 0, false
	rest, err := walkSparseRuns(body, runs, n, func(row, _, length int, v float64) {
		nnz += length
		if rowNNZ != nil {
			rowNNZ[row] += length
		}
		negZero = negZero || math.Float64bits(v) == 1<<63
	})
	if err != nil {
		return nil, 0, nil, err
	}
	var m comm.Affinity
	switch sparseCap := min(n, MaxMatrixOrder) * min(n, MaxMatrixOrder) / 8; {
	case nnz <= sparseCap && !negZero && dst != nil:
		dst.Reset(n)
		m = dst
	case nnz <= sparseCap && !negZero:
		m = comm.NewSparseSized(rowNNZ)
	case n <= MaxMatrixOrder:
		m = comm.NewMatrix(n)
	case negZero:
		return nil, 0, nil, fmt.Errorf("codec: order-%d sparse body holds a -0 cell, which decodes only dense, up to order %d", n, MaxMatrixOrder)
	default:
		return nil, 0, nil, fmt.Errorf("codec: order-%d sparse body claims %d cells, over the %d a body above order %d may hold", n, nnz, sparseCap, MaxMatrixOrder)
	}
	var fp comm.FingerprintFold
	fp.Start(n)
	end := 0 // cell index one past the previous run
	// The runs were validated above: this walk cannot fail.
	walkSparseRuns(body, runs, n, func(row, col, length int, v float64) {
		for k := col; k < col+length; k++ {
			m.Set(row, k, v)
		}
		at := row*n + col
		fp.Zeros(at - end)
		fp.Run(math.Float64bits(v), length)
		end = at + length
	})
	return m, fp.Sum(), rest, nil
}
