package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"orwlplace/internal/comm"
)

// Matrix fields. The dependency matrices are mostly sparse (a ring row
// has two nonzero entries out of hundreds), so a field carries either
// the dense 8n² layout or a run-length body — (zero-gap, run-length,
// value) varint triplets over the row-major cell stream — whichever is
// smaller. A mode byte opens the field; the wire adds its own
// fingerprint-reference mode after these.
const (
	MatAbsent = 0
	MatDense  = 1
	MatSparse = 2
)

// MaxMatrixOrder is the largest order a matrix decodes dense at:
// floor(sqrt(64 MiB / 8)), the densest matrix a wire frame can carry.
// Above it a body decodes only sparse, holding at most
// MaxMatrixOrder²/8 cells, so no field allocates more than a dense
// order-MaxMatrixOrder matrix whatever order its caller allows.
const MaxMatrixOrder = 2896

// OrderError refuses a matrix field whose order exceeds its limit,
// before anything is sized by that order.
type OrderError struct {
	Mode  string // "dense" or "sparse"
	Order uint64
	Limit int
}

func (e *OrderError) Error() string {
	return fmt.Sprintf("codec: %s matrix order %d exceeds limit %d", e.Mode, e.Order, e.Limit)
}

// putMatrixDenseBody appends the dense matrix body (order, row-major
// float64 entries) that follows the MatDense mode byte.
func putMatrixDenseBody(dst []byte, m *comm.Matrix) []byte {
	n := m.Order()
	dst = PutUint64(dst, uint64(n))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dst = PutFloat64(dst, m.At(i, j))
		}
	}
	return dst
}

// getMatrixDenseBody decodes a dense body of order at most
// min(maxOrder, MaxMatrixOrder), folding its comm.Fingerprint during
// the copy.
func getMatrixDenseBody(rest []byte, maxOrder int) (comm.Affinity, uint64, []byte, error) {
	n64, rest, err := GetUint64(rest)
	if err != nil {
		return nil, 0, nil, err
	}
	if limit := min(maxOrder, MaxMatrixOrder); n64 > uint64(limit) {
		return nil, 0, nil, &OrderError{"dense", n64, limit}
	}
	n := int(n64)
	if len(rest) < 8*n*n {
		return nil, 0, nil, fmt.Errorf("codec: truncated matrix (order %d)", n)
	}
	m := comm.NewMatrix(n)
	var fp comm.FingerprintFold
	fp.Start(n)
	for i := 0; i < n; i++ {
		row := m.RowView(i)
		for j := range row {
			u := binary.LittleEndian.Uint64(rest)
			rest = rest[8:]
			row[j] = math.Float64frombits(u)
			fp.Run(u, 1)
		}
	}
	return m, fp.Sum(), rest, nil
}

// runEmitter writes a matrix field in the compact encoding in one walk:
// its caller hands it the nonzero runs in row-major cell order, and it
// appends their triplets straight into the payload while folding the
// matrix's comm.Fingerprint. The sparse body is uvarint order, uvarint
// run count, then (zero-gap, run-length, reversed-bits value) varint
// triplets; a run never crosses a row boundary or a change of bits,
// and the gap field is the RLE of the zero cells between runs. A cell
// is "zero" only when its bit pattern is exactly +0: the encoding must
// round-trip bits (NaNs, -0) exactly, or the client's fingerprint and
// the server's would drift apart and every reference would miss.
type runEmitter struct {
	dst         []byte
	start, hole int // offsets of the mode byte and of the run-count hole
	n, end      int // order; cell index one past the previous run
	runs        uint64
	fp          comm.FingerprintFold
}

func newRunEmitter(dst []byte, n int) runEmitter {
	e := runEmitter{start: len(dst), n: n}
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
	gap := at - e.end
	e.fp.Zeros(gap)
	e.fp.Run(b, length)
	e.dst = PutUvarint(e.dst, uint64(gap))
	e.dst = PutUvarint(e.dst, uint64(length))
	e.dst = PutUvarint(e.dst, bits.ReverseBytes64(b))
	e.end = at + length
	e.runs++
}

// close finishes the field and returns it with the fingerprint. A
// sparse body no smaller than the dense 8+8n² layout is replaced by the
// dense field of a, which holds the cells the runs described.
func (e *runEmitter) close(a comm.Affinity) ([]byte, uint64) {
	fp := e.fp.Sum()
	var count [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(count[:], e.runs)
	if len(e.dst)-e.hole-len(count)+uvarintLen(uint64(e.n))+k >= 8+8*e.n*e.n {
		return putMatrixDenseBody(append(e.dst[:e.start], MatDense), a.Dense()), fp
	}
	copy(e.dst[e.hole:], count[:k])
	return append(e.dst[:e.hole+k], e.dst[e.hole+len(count):]...), fp
}

// PutMatrixField encodes a matrix field — sparse or dense, whichever is
// smaller, a choice invisible to the decoder (both carry their mode
// byte), so density drift never changes the layout — and returns the
// matrix's comm.Fingerprint (zero for nil), all in one walk: over the
// cells of a dense matrix (which keeps -0 cells bit-exact), over the
// row-sorted nonzeros of any other affinity.
func PutMatrixField(dst []byte, a comm.Affinity) ([]byte, uint64) {
	if comm.NilAffinity(a) {
		return append(dst, MatAbsent), 0
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
	return e.close(m)
}

// putAffinityCompact is PutMatrixField for an affinity without a dense
// form: it walks the row-sorted nonzeros, and a run extends while the
// next one is the adjacent cell of the same row with the same bits.
func putAffinityCompact(dst []byte, a comm.Affinity) ([]byte, uint64) {
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
	return e.close(a)
}

// GetMatrixField decodes a MatAbsent, MatDense or MatSparse field of
// order at most maxOrder and returns the matrix (nil when absent) with
// its comm.Fingerprint, folded during the decode. A body that decodes
// sparse refills dst, once validated in full; nil dst allocates.
func GetMatrixField(src []byte, maxOrder int, dst *comm.Sparse) (comm.Affinity, uint64, []byte, error) {
	if len(src) < 1 {
		return nil, 0, nil, fmt.Errorf("codec: truncated matrix mode")
	}
	switch mode, rest := src[0], src[1:]; mode {
	case MatAbsent:
		return nil, 0, rest, nil
	case MatDense:
		return getMatrixDenseBody(rest, maxOrder)
	case MatSparse:
		return getSparseBody(rest, maxOrder, dst)
	default:
		return nil, 0, nil, fmt.Errorf("codec: unknown matrix mode %d", mode)
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
		return 0, 0, nil, &OrderError{"sparse", n64, maxOrder}
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
// getSparseBody calls it once to validate and record a body, and a
// second time only to fill a body that decodes dense.
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
// zero cells. The body is validated in full — every run, and the cell
// count they claim (one triplet can claim all n²) — before the target
// exists. Let m = min(n, MaxMatrixOrder): the body decodes sparse iff
// its runs cover at most m²/8 cells and hold no -0 cell (which sparse
// storage cannot hold); otherwise it decodes dense up to order
// MaxMatrixOrder and is refused above it.
//
// The validating walk records the runs in a pooled scratch until they
// cover more than m²/8 cells, so a sparse fill replays it and only a
// dense one parses the body again. No body allocates more than the 8·m²
// bytes of a dense order-m matrix plus the 3·m² of m²/8 24-byte runs.
func getSparseBody(src []byte, maxOrder int, dst *comm.Sparse) (comm.Affinity, uint64, []byte, error) {
	n, runs, body, err := getSparseHeader(src, maxOrder)
	if err != nil {
		return nil, 0, nil, err
	}
	var rowNNZ []int
	if dst == nil {
		rowNNZ = make([]int, n)
	}
	// Sized once: at most a segment per run and row end, and per cell.
	sparseCap := min(n, MaxMatrixOrder) * min(n, MaxMatrixOrder) / 8
	scratch := runPool.Get().(*[]sparseRun)
	rec := (*scratch)[:0]
	if need := min(int(runs)+n, sparseCap); cap(rec) < need {
		rec = make([]sparseRun, 0, need)
	}
	defer func() {
		if cap(rec) <= maxPooledRuns {
			*scratch = rec[:0]
			runPool.Put(scratch)
		}
	}()
	nnz, negZero := 0, false
	rest, err := walkSparseRuns(body, runs, n, func(row, col, length int, v float64) {
		if nnz += length; nnz <= sparseCap {
			rec = append(rec, sparseRun{row*n + col, length, v})
		}
		if rowNNZ != nil {
			rowNNZ[row] += length
		}
		negZero = negZero || math.Float64bits(v) == 1<<63
	})
	if err != nil {
		return nil, 0, nil, err
	}
	var m comm.Affinity
	sparse := nnz <= sparseCap && !negZero
	switch {
	case sparse && dst != nil:
		dst.Reset(n)
		m = dst
	case sparse:
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
	fold := func(at, length int, v float64) {
		fp.Zeros(at - end)
		fp.Run(math.Float64bits(v), length)
		end = at + length
	}
	if !sparse {
		// The runs were validated above: this walk cannot fail.
		walkSparseRuns(body, runs, n, func(row, col, length int, v float64) {
			for k := col; k < col+length; k++ {
				m.Set(row, k, v)
			}
			fold(row*n+col, length, v)
		})
		return m, fp.Sum(), rest, nil
	}
	sp, row := m.(*comm.Sparse), 0 // the runs ascend: the rows fill by appending
	for _, r := range rec {
		for r.at >= (row+1)*n {
			row++
		}
		for k := r.at - row*n; k < r.at-row*n+r.length; k++ {
			sp.Append(row, k, r.v)
		}
		fold(r.at, r.length, r.v)
	}
	return m, fp.Sum(), rest, nil
}
