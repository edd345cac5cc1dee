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
// validated in full — every run, and the cells they claim (one triplet
// can claim all n²) against MaxMatrixCells — before the target is
// touched. A -0 cell folds into the fingerprint and, set as a zero,
// stores nothing.
func getSparseBodyTwoWalk(src []byte, maxOrder int, dst *comm.Sparse) (*comm.Sparse, uint64, []byte, error) {
	n, runs, body, err := getSparseHeader(src, maxOrder)
	if err != nil {
		return nil, 0, nil, err
	}
	var rowNNZ []int
	if dst == nil {
		rowNNZ = make([]int, n)
	}
	cells := 0
	rest, err := walkSparseRuns(body, runs, n, func(row, _, length int, _ float64) {
		cells += length
		if rowNNZ != nil {
			rowNNZ[row] += length
		}
	})
	if err != nil {
		return nil, 0, nil, err
	}
	if cells > MaxMatrixCells {
		return nil, 0, nil, fmt.Errorf("codec: order-%d sparse body claims %d cells, over the %d a body may hold", n, cells, MaxMatrixCells)
	}
	m := dst
	if m == nil {
		m = comm.NewSparseSized(rowNNZ)
	} else {
		m.Reset(n)
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
