package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"orwlplace/internal/comm"
)

// Matrix fields. The dependency matrices are mostly sparse (a ring row
// has two nonzero entries out of hundreds), so a field carries a
// run-length body — (zero-gap, run-length, value) varint triplets over
// the row-major cell stream — whatever the density. A mode byte opens
// the field; the wire adds its own modes after these. Mode 1, the
// retired dense layout, is refused like any unknown mode.
const (
	MatAbsent = 0
	MatSparse = 2
)

// ErrMatrixMode refuses a field whose mode byte names no matrix layout.
var ErrMatrixMode = errors.New("codec: unknown matrix mode")

// MaxMatrixOrder is floor(sqrt(64 MiB / 8)): the order bound of a place
// request's matrix, and what MaxMatrixCells is sized from.
const MaxMatrixOrder = 2896

// MaxMatrixCells caps the cells a field's runs may claim, at any order:
// a quarter of MaxMatrixOrder², a full order-1448 matrix. A decode holds
// 16 bytes per stored cell and at most 24 of run scratch per claimed
// cell, 10·2896² bytes in all, under the 8·2896² + 3·2896² of a dense
// order-2896 decode and its scratch while the dense layout existed; a
// full matrix of order 1449 or more, which that layout carried, is not.
const MaxMatrixCells = MaxMatrixOrder * MaxMatrixOrder / 4

// CellsError refuses a matrix field whose runs claim more than
// MaxMatrixCells cells, in the encoder and the decoder alike.
type CellsError struct{ Order, Cells int }

func (e *CellsError) Error() string {
	return fmt.Sprintf("codec: order-%d sparse body claims %d cells, over the %d a body may hold", e.Order, e.Cells, MaxMatrixCells)
}

// OrderError refuses a matrix field whose order exceeds its limit,
// before anything is sized by that order.
type OrderError struct {
	Order uint64
	Limit int
}

func (e *OrderError) Error() string {
	return fmt.Sprintf("codec: sparse matrix order %d exceeds limit %d", e.Order, e.Limit)
}

// runEmitter writes a matrix field in one walk:
// its caller hands it the nonzero runs in row-major cell order, and it
// appends their triplets straight into the payload while folding the
// matrix's comm.Fingerprint. The body is uvarint order, uvarint
// run count, then (zero-gap, run-length, reversed-bits value) varint
// triplets; a run never crosses a row boundary or a change of bits,
// and the gap field is the RLE of the zero cells between runs. A cell
// is "zero" only when its bit pattern is exactly +0: the encoding must
// round-trip bits (NaNs, -0) exactly, or the client's fingerprint and
// the server's would drift apart and every reference would miss.
type runEmitter struct {
	dst      []byte
	hole     int // offset of the run-count hole
	end      int // cell index one past the previous run
	n, cells int // the order, the cells the runs claim
	runs     uint64
	fp       comm.FingerprintFold
}

func newRunEmitter(dst []byte, n int) runEmitter {
	e := runEmitter{n: n}
	e.dst = PutUvarint(append(dst, MatSparse), uint64(n))
	// The run count precedes the triplets but is known only after the
	// walk: leave room for the longest varint, close the gap at the end.
	e.hole = len(e.dst)
	e.dst = append(e.dst, make([]byte, binary.MaxVarintLen64)...)
	e.fp.Start(n)
	return e
}

// run emits length cells of the word b starting at cell index at.
func (e *runEmitter) run(at, length int, b uint64) {
	if e.cells += length; e.cells > MaxMatrixCells {
		return // refused at close: the body stops growing
	}
	gap := at - e.end
	e.fp.Zeros(gap)
	e.fp.Run(b, length)
	e.dst = PutUvarint(e.dst, uint64(gap))
	e.dst = PutUvarint(e.dst, uint64(length))
	e.dst = PutUvarint(e.dst, bits.ReverseBytes64(b))
	e.end = at + length
	e.runs++
}

// close finishes the field and returns it with the fingerprint, or
// refuses a body no decoder accepts.
func (e *runEmitter) close() ([]byte, uint64, error) {
	if e.cells > MaxMatrixCells {
		return nil, 0, &CellsError{e.n, e.cells}
	}
	var count [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(count[:], e.runs)
	copy(e.dst[e.hole:], count[:k])
	return append(e.dst[:e.hole+k], e.dst[e.hole+len(count):]...), e.fp.Sum(), nil
}

// PutMatrixField encodes a matrix field — the run-length body at any
// density — and returns the matrix's comm.Fingerprint (zero for nil),
// all in one walk: over the cells of a dense matrix (a -0 cell is a run,
// so its bits reach the fingerprint), over the row-sorted nonzeros of
// any other affinity. A matrix whose runs claim more than MaxMatrixCells
// cells is refused with a *CellsError.
func PutMatrixField(dst []byte, a comm.Affinity) ([]byte, uint64, error) {
	if comm.NilAffinity(a) {
		return append(dst, MatAbsent), 0, nil
	}
	m, ok := a.(*comm.Matrix)
	if !ok {
		return putAffinityCompact(dst, a)
	}
	n := m.Order()
	e := newRunEmitter(dst, n)
	for i := 0; i < n; i++ {
		row := m.RowView(i)
		for j := 0; j < n; {
			b := math.Float64bits(row[j])
			if b == 0 {
				j++
				continue
			}
			l := 1
			for j+l < n && math.Float64bits(row[j+l]) == b {
				l++
			}
			e.run(i*n+j, l, b)
			j += l
		}
	}
	return e.close()
}

// putAffinityCompact is PutMatrixField for an affinity without a dense
// form: it walks the row-sorted nonzeros, and a run extends while the
// next one is the adjacent cell of the same row with the same bits.
func putAffinityCompact(dst []byte, a comm.Affinity) ([]byte, uint64, error) {
	n := a.Order()
	e := newRunEmitter(dst, n)
	var runBits uint64
	var i, runCol, runLen int
	// One closure for every row: a literal inside the loop would be
	// allocated per row, since ForEachRow is an interface call.
	row := func(j int, v float64) {
		if b := math.Float64bits(v); runLen == 0 || j != runCol+runLen || b != runBits {
			if runLen > 0 {
				e.run(i*n+runCol, runLen, runBits)
			}
			runCol, runBits, runLen = j, b, 0
		}
		runLen++
	}
	for i = 0; i < n; i++ {
		a.ForEachRow(i, row)
		if runLen > 0 { // a run never crosses a row boundary
			e.run(i*n+runCol, runLen, runBits)
			runLen = 0
		}
	}
	return e.close()
}

// GetMatrixField decodes a MatAbsent or MatSparse field of order at
// most maxOrder and returns the matrix (nil when absent) with its
// comm.Fingerprint, folded during the decode. The body refills dst once
// validated in full; nil dst allocates.
func GetMatrixField(src []byte, maxOrder int, dst *comm.Sparse) (*comm.Sparse, uint64, []byte, error) {
	if len(src) < 1 {
		return nil, 0, nil, fmt.Errorf("codec: truncated matrix mode")
	}
	switch mode, rest := src[0], src[1:]; mode {
	case MatAbsent:
		return nil, 0, rest, nil
	case MatSparse:
		return getSparseBody(rest, maxOrder, dst)
	default:
		return nil, 0, nil, fmt.Errorf("%w %d", ErrMatrixMode, mode)
	}
}

// getSparseHeader reads a sparse body's order, refusing one above
// maxOrder, and its run count, leaving the triplets.
func getSparseHeader(src []byte, maxOrder int) (n int, runs uint64, body []byte, err error) {
	n64, rest, err := GetUvarint(src)
	if err != nil {
		return 0, 0, nil, err
	}
	if n64 > uint64(maxOrder) {
		return 0, 0, nil, &OrderError{n64, maxOrder}
	}
	if runs, body, err = GetUvarint(rest); err != nil {
		return 0, 0, nil, err
	}
	// Each run costs at least three bytes; a count beyond that is a
	// corrupt or hostile body.
	if runs > uint64(len(body)) {
		return 0, 0, nil, fmt.Errorf("%w sparse run count %d", errAbsurd, runs)
	}
	return int(n64), runs, body, nil
}

// walkSparseRuns validates the (zero-gap, run-length, value) triplets
// of a sparse body against an n x n cell stream and calls visit for
// every run, split at row boundaries: length cells of value v starting
// at (row, col). It returns the bytes after the last triplet, allocates
// nothing and, apart from visit, does work proportional to runs + n.
func walkSparseRuns(body []byte, runs uint64, n int, visit func(row, col, length int, v float64)) ([]byte, error) {
	cells := uint64(n) * uint64(n)
	var idx uint64
	row, rowEnd := 0, uint64(n) // rowEnd is the cell index one past row
	for r := uint64(0); r < runs; r++ {
		var gap, runLen, raw uint64
		var err error
		if gap, body, err = GetUvarint(body); err != nil {
			return nil, err
		}
		if runLen, body, err = GetUvarint(body); err != nil {
			return nil, err
		}
		if raw, body, err = GetUvarint(body); err != nil {
			return nil, err
		}
		if runLen == 0 {
			return nil, fmt.Errorf("codec: sparse run %d has zero length", r)
		}
		if gap > cells-idx || runLen > cells-idx-gap {
			return nil, fmt.Errorf("codec: sparse run %d overruns the %d-cell matrix", r, cells)
		}
		idx += gap
		for v := UnzigzagFloat(raw); runLen > 0; {
			for idx >= rowEnd {
				row++
				rowEnd += uint64(n)
			}
			seg := min(runLen, rowEnd-idx)
			visit(row, int(idx+uint64(n)-rowEnd), int(seg), v)
			idx += seg
			runLen -= seg
		}
	}
	return body, nil
}

// runPool holds the run scratch of each getSparseBody in flight: one
// sparseRun per row segment its validating walk parsed, length cells of
// v from the row-major cell index at. A scratch sized past
// maxPooledRuns (1.5 MiB) is dropped, not pinned for the next decode.
var runPool = sync.Pool{New: func() any { return new([]sparseRun) }}

const maxPooledRuns = 1 << 16

type sparseRun struct {
	at, length int
	v          float64
}

// getSparseBody decodes a sparse matrix body, folding its
// comm.Fingerprint from the runs: O(runs + n), never a pass over the
// zero cells. The body is validated in full — every run, and the cells
// they claim (one triplet can claim all n²) against MaxMatrixCells —
// before the target is touched: the one walk that validates also
// records each run segment in a pooled scratch, and the fill replays
// it. A -0 cell folds into the fingerprint, so both ends agree on the
// matrix's identity, but stores nothing: sparse storage holds no zero,
// and the mapper reads -0 as +0.
func getSparseBody(src []byte, maxOrder int, dst *comm.Sparse) (*comm.Sparse, uint64, []byte, error) {
	n, runs, body, err := getSparseHeader(src, maxOrder)
	if err != nil {
		return nil, 0, nil, err
	}
	var rowNNZ []int
	if dst == nil {
		rowNNZ = make([]int, n)
	}
	// Sized once: at most a segment per run and row end, and per cell.
	scratch := runPool.Get().(*[]sparseRun)
	rec := (*scratch)[:0]
	if need := min(int(runs)+n, MaxMatrixCells); cap(rec) < need {
		rec = make([]sparseRun, 0, need)
	}
	defer func() {
		if cap(rec) <= maxPooledRuns {
			*scratch = rec[:0]
			runPool.Put(scratch)
		}
	}()
	cells := 0
	rest, err := walkSparseRuns(body, runs, n, func(row, col, length int, v float64) {
		if cells += length; cells <= MaxMatrixCells {
			rec = append(rec, sparseRun{row*n + col, length, v})
			if rowNNZ != nil {
				rowNNZ[row] += length
			}
		}
	})
	if err != nil {
		return nil, 0, nil, err
	}
	if cells > MaxMatrixCells {
		return nil, 0, nil, &CellsError{n, cells}
	}
	m := dst
	if m == nil {
		m = comm.NewSparseSized(rowNNZ)
	} else {
		m.Reset(n)
	}
	var fp comm.FingerprintFold
	fp.Start(n)
	end, row := 0, 0 // the runs ascend: the rows fill by appending
	for _, r := range rec {
		fp.Zeros(r.at - end)
		fp.Run(math.Float64bits(r.v), r.length)
		end = r.at + r.length
		for r.at >= (row+1)*n {
			row++
		}
		for k := r.at - row*n; k < r.at-row*n+r.length; k++ {
			m.Append(row, k, r.v) // a -0 stores nothing
		}
	}
	return m, fp.Sum(), rest, nil
}
