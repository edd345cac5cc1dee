package orwlnet

import (
	"container/list"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
	"orwlplace/internal/treematch"
)

// Schema v4 payload compaction: the dependency matrices that dominate
// placement payloads are mostly sparse (a ring row has two nonzero
// entries out of hundreds) and slowly changing (a warm client resends
// the same matrix on every call). Two wire encodings exploit that:
//
//   - a sparse run-length triplet encoding — (zero-gap, run-length,
//     value) varint runs over the row-major cell stream — chosen
//     automatically whenever it beats the dense 8n² layout;
//   - a fingerprint-only reference: once a matrix body has crossed the
//     wire, later requests send its 8-byte comm.Fingerprint and the
//     server resolves the body from its seen-matrix table, answering
//     errUnknownMatrix on a miss so the client resends the body.
//
// Both are gated on the schema v4 version byte, so a pre-pipeline peer
// never sees a mode byte it would misread as a presence bool.

// Matrix wire modes (the byte that replaces the v1-v3 presence bool in
// schema v4 payloads).
const (
	matAbsent      = 0
	matDense       = 1
	matSparse      = 2
	matFingerprint = 3
)

// errUnknownMatrix is the error text a server answers when a
// fingerprint-only request names a matrix its seen-matrix table no
// longer holds (evicted, or the daemon restarted). The wording is
// FROZEN: clients detect the condition by this substring and fall back
// to resending the matrix body.
const errUnknownMatrix = "unknown matrix fingerprint"

// maxMatrixOrder bounds a decoded matrix order. Dense payloads are
// implicitly bounded by maxMessage; the sparse and fingerprint
// encodings can claim a huge order in a few bytes, so the same ceiling
// is enforced explicitly — a hostile 5-byte frame must not allocate a
// terabyte-scale backing array.
const maxMatrixOrder = 2896 // floor(sqrt(maxMessage/8)): the densest matrix a frame can carry

// uvarintLen returns the encoded size of v in bytes.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// zigzagFloat maps float64 bits so that the trailing zero bytes of
// typical volumes (integral byte counts) become leading zeros a varint
// elides: 65536.0 encodes in 3 bytes instead of 10.
func zigzagFloat(v float64) uint64 {
	return bits.ReverseBytes64(math.Float64bits(v))
}

func unzigzagFloat(u uint64) float64 {
	return math.Float64frombits(bits.ReverseBytes64(u))
}

// sparseSize measures the exact sparse-body size of m (runs and bytes,
// excluding the mode byte) in one pass over the cell stream, so the
// encoder can choose the smaller of sparse and dense without encoding
// twice. A cell is "zero" only when its bit pattern is exactly +0:
// the encoding must round-trip bits (NaNs, -0) exactly, or the
// client's fingerprint and the server's would drift apart and every
// fingerprint-only request would miss.
func sparseSize(m *comm.Matrix) (runs int, bodyBytes int) {
	n := m.Order()
	gap := 0
	for i := 0; i < n; i++ {
		row := m.RowView(i)
		for j := 0; j < n; {
			if math.Float64bits(row[j]) == 0 {
				gap++
				j++
				continue
			}
			runLen := 1
			for j+runLen < n && math.Float64bits(row[j+runLen]) == math.Float64bits(row[j]) {
				runLen++
			}
			runs++
			bodyBytes += uvarintLen(uint64(gap)) + uvarintLen(uint64(runLen)) + uvarintLen(zigzagFloat(row[j]))
			gap = 0
			j += runLen
		}
	}
	bodyBytes += uvarintLen(uint64(n)) + uvarintLen(uint64(runs))
	return runs, bodyBytes
}

// appendSparseBody emits the sparse body: uvarint order, uvarint run
// count, then (zero-gap, run-length, reversed-bits value) varint
// triplets over the row-major cell stream. Runs never cross a value
// change; the gap field is the RLE of the zero cells between them.
func appendSparseBody(dst []byte, m *comm.Matrix, runs int) []byte {
	n := m.Order()
	dst = putUvarint(dst, uint64(n))
	dst = putUvarint(dst, uint64(runs))
	gap := 0
	for i := 0; i < n; i++ {
		row := m.RowView(i)
		for j := 0; j < n; {
			b := math.Float64bits(row[j])
			if b == 0 {
				gap++
				j++
				continue
			}
			runLen := 1
			for j+runLen < n && math.Float64bits(row[j+runLen]) == b {
				runLen++
			}
			dst = putUvarint(dst, uint64(gap))
			dst = putUvarint(dst, uint64(runLen))
			dst = putUvarint(dst, zigzagFloat(row[j]))
			gap = 0
			j += runLen
		}
	}
	return dst
}

// getSparseHeader reads a sparse body's order and run count, leaving
// the triplets.
func getSparseHeader(src []byte) (n int, runs uint64, body []byte, err error) {
	n64, rest, err := getUvarint(src)
	if err != nil {
		return 0, 0, nil, err
	}
	if n64 > maxMatrixOrder {
		return 0, 0, nil, fmt.Errorf("orwlnet: sparse matrix order %d exceeds limit %d", n64, maxMatrixOrder)
	}
	if runs, body, err = getUvarint(rest); err != nil {
		return 0, 0, nil, err
	}
	// Each run costs at least three bytes on the wire; a count beyond
	// that is a corrupt or hostile frame.
	if runs > uint64(len(body)) {
		return 0, 0, nil, fmt.Errorf("orwlnet: absurd sparse run count %d", runs)
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
		if gap, body, err = getUvarint(body); err != nil {
			return nil, err
		}
		if runLen, body, err = getUvarint(body); err != nil {
			return nil, err
		}
		if raw, body, err = getUvarint(body); err != nil {
			return nil, err
		}
		if runLen == 0 {
			return nil, fmt.Errorf("orwlnet: sparse run %d has zero length", r)
		}
		if gap > cells-idx || runLen > cells-idx-gap {
			return nil, fmt.Errorf("orwlnet: sparse run %d overruns the %d-cell matrix", r, cells)
		}
		idx += gap
		for v := unzigzagFloat(raw); runLen > 0; {
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

// getSparseBody decodes a sparse matrix body.
func getSparseBody(src []byte) (*comm.Matrix, []byte, error) {
	n, runs, body, err := getSparseHeader(src)
	if err != nil {
		return nil, nil, err
	}
	m := comm.NewMatrix(n)
	rest, err := walkSparseRuns(body, runs, n, func(row, col, length int, v float64) {
		for k := col; k < col+length; k++ {
			m.Set(row, k, v)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return m, rest, nil
}

// putMatrixCompact encodes a matrix for a schema v4 payload, choosing
// the smaller of the sparse and dense encodings. The choice is
// invisible to the decoder (both carry their mode byte), so density
// drift in a workload never needs renegotiation.
func putMatrixCompact(dst []byte, m *comm.Matrix) []byte {
	if m == nil {
		return append(dst, matAbsent)
	}
	n := m.Order()
	runs, sparseBytes := sparseSize(m)
	if sparseBytes >= 8+8*n*n {
		dst = append(dst, matDense)
		return putMatrixDenseBody(dst, m)
	}
	dst = append(dst, matSparse)
	return appendSparseBody(dst, m, runs)
}

// putMatrixFingerprint encodes a fingerprint-only matrix reference:
// the 8-byte comm.Fingerprint plus the order (so the server can
// sanity-check the resolved body against what the client meant).
func putMatrixFingerprint(dst []byte, fp uint64, order int) []byte {
	dst = append(dst, matFingerprint)
	dst = putUint64(dst, fp)
	return putUvarint(dst, uint64(order))
}

// getMatrixV4 decodes a schema v4 matrix field. mc is the serving
// side's seen-matrix table: full bodies are remembered in it and
// fingerprint references resolved from it; a nil mc (client-side
// decode, codec tests) still decodes bodies but refuses fingerprint
// references. The second result is the matrix's comm.Fingerprint when
// the decode path established it anyway (resolving a reference, or
// remembering a body) — the serving side forwards it as the request's
// MatrixFP hint so the engine never re-hashes; zero when unknown.
func getMatrixV4(src []byte, mc *matrixCache) (*comm.Matrix, uint64, []byte, error) {
	if len(src) < 1 {
		return nil, 0, nil, fmt.Errorf("orwlnet: truncated matrix mode")
	}
	mode, rest := src[0], src[1:]
	switch mode {
	case matAbsent:
		return nil, 0, rest, nil
	case matDense:
		m, rest, err := getMatrixDenseBody(rest)
		if err != nil {
			return nil, 0, nil, err
		}
		var fp uint64
		if mc != nil {
			fp = comm.Fingerprint(m)
			mc.remember(fp, m)
		}
		return m, fp, rest, nil
	case matSparse:
		m, rest, err := getSparseBody(rest)
		if err != nil {
			return nil, 0, nil, err
		}
		var fp uint64
		if mc != nil {
			mc.sparseSeen.Add(1)
			fp = comm.Fingerprint(m)
			mc.remember(fp, m)
		}
		return m, fp, rest, nil
	case matFingerprint:
		fp, rest, err := getUint64(rest)
		if err != nil {
			return nil, 0, nil, err
		}
		order, rest, err := getUvarint(rest)
		if err != nil {
			return nil, 0, nil, err
		}
		if mc == nil {
			return nil, 0, nil, fmt.Errorf("orwlnet: fingerprint-only matrix without a serving matrix table")
		}
		m, ok := mc.lookup(fp)
		if !ok {
			return nil, 0, nil, fmt.Errorf("orwlnet: %s %016x", errUnknownMatrix, fp)
		}
		if uint64(m.Order()) != order {
			// A fingerprint collision between different orders would
			// silently place the wrong matrix; refuse like a miss so the
			// client resends the body.
			return nil, 0, nil, fmt.Errorf("orwlnet: %s %016x (order %d, cached %d)", errUnknownMatrix, fp, order, m.Order())
		}
		return m, fp, rest, nil
	default:
		return nil, 0, nil, fmt.Errorf("orwlnet: unknown matrix mode %d", mode)
	}
}

// matrixCache is the daemon's seen-matrix table: an LRU of recently
// decoded request matrices keyed by comm.Fingerprint, shared across
// every connection so a pooled client warms it once. Cached matrices
// are shared read-only with the placement engines (nothing downstream
// of decode mutates a request matrix).
type matrixCache struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; values are *matrixCacheEntry
	entries map[uint64]*list.Element

	sparseSeen atomic.Uint64
	fpHits     atomic.Uint64
	fpMisses   atomic.Uint64
}

type matrixCacheEntry struct {
	fp uint64
	m  *comm.Matrix
}

// defaultMatrixCacheEntries bounds the seen-matrix table. Matrices are
// at most maxMessage bytes each by construction; a fleet workload has
// a handful of live patterns, so a small table covers the warm path
// while bounding worst-case memory.
const defaultMatrixCacheEntries = 64

func newMatrixCache(max int) *matrixCache {
	return &matrixCache{max: max, order: list.New(), entries: make(map[uint64]*list.Element)}
}

func (c *matrixCache) lookup(fp uint64) (*comm.Matrix, bool) {
	c.mu.Lock()
	el, ok := c.entries[fp]
	var m *comm.Matrix
	if ok {
		c.order.MoveToFront(el)
		m = el.Value.(*matrixCacheEntry).m // remember rewrites it under mu
	}
	c.mu.Unlock()
	if !ok {
		c.fpMisses.Add(1)
		return nil, false
	}
	c.fpHits.Add(1)
	return m, true
}

func (c *matrixCache) remember(fp uint64, m *comm.Matrix) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[fp]; ok {
		el.Value.(*matrixCacheEntry).m = m
		c.order.MoveToFront(el)
		return
	}
	c.entries[fp] = c.order.PushFront(&matrixCacheEntry{fp: fp, m: m})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*matrixCacheEntry).fp)
	}
}

func (c *matrixCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// zigzag maps a signed int to a varint-friendly unsigned one (small
// magnitudes of either sign stay small; -1, the unbound PU marker,
// becomes 1).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// putIntSliceV4 is putIntSlice in the schema v4 varint layout: PU
// indices are small, so one byte each instead of eight. An
// assignment's three slices dominate a warm response; this is what
// makes a v4 response a few hundred bytes instead of ~4 KiB. Nil and
// empty stay distinguished the same way (count holds 0 or len+1).
func putIntSliceV4(dst []byte, s []int) []byte {
	if s == nil {
		return putUvarint(dst, 0)
	}
	dst = putUvarint(dst, uint64(len(s)+1))
	for _, v := range s {
		dst = putUvarint(dst, zigzag(int64(v)))
	}
	return dst
}

func getIntSliceV4(src []byte) ([]int, []byte, error) {
	n, rest, err := getUvarint(src)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, rest, nil
	}
	count := int(n - 1)
	// Each value costs at least one byte on the wire.
	if count < 0 || count > len(rest) {
		return nil, nil, fmt.Errorf("orwlnet: truncated varint int slice (%d entries)", count)
	}
	out := make([]int, count)
	for i := range out {
		var u uint64
		if u, rest, err = getUvarint(rest); err != nil {
			return nil, nil, err
		}
		out[i] = int(unzigzag(u))
	}
	return out, rest, nil
}

// putAssignmentV4 / getAssignmentV4 are the schema v4 assignment
// layout: identical structure to the v1-v3 one, with the three PU
// slices varint-packed.
func putAssignmentV4(dst []byte, a *placement.Assignment) []byte {
	if a == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = putString(dst, a.Strategy)
	var flags byte
	if a.Unbound {
		flags |= asgnUnbound
	}
	if a.Oversubscribed {
		flags |= asgnOversubscribed
	}
	dst = append(dst, flags, byte(a.Mode))
	dst = putIntSliceV4(dst, a.ComputePU)
	dst = putIntSliceV4(dst, a.ControlPU)
	return putIntSliceV4(dst, a.CoreOf)
}

func getAssignmentV4(src []byte) (*placement.Assignment, []byte, error) {
	present, rest, err := getBool(src)
	if err != nil || !present {
		return nil, rest, err
	}
	a := &placement.Assignment{}
	if a.Strategy, rest, err = getString(rest); err != nil {
		return nil, nil, err
	}
	if len(rest) < 2 {
		return nil, nil, fmt.Errorf("orwlnet: truncated assignment")
	}
	flags := rest[0]
	a.Unbound = flags&asgnUnbound != 0
	a.Oversubscribed = flags&asgnOversubscribed != 0
	a.Mode = treematch.ControlMode(rest[1])
	rest = rest[2:]
	if a.ComputePU, rest, err = getIntSliceV4(rest); err != nil {
		return nil, nil, err
	}
	if a.ControlPU, rest, err = getIntSliceV4(rest); err != nil {
		return nil, nil, err
	}
	if a.CoreOf, rest, err = getIntSliceV4(rest); err != nil {
		return nil, nil, err
	}
	return a, rest, nil
}

// NetStats codec (schema v4 stats payload tail).

func putNetStats(dst []byte, st placement.NetStats) []byte {
	dst = putUint64(dst, st.InFlight)
	dst = putUint64(dst, st.PeakInFlight)
	dst = putUint64(dst, st.BytesIn)
	dst = putUint64(dst, st.BytesOut)
	dst = putUint64(dst, st.SparseMatrices)
	dst = putUint64(dst, st.FingerprintHits)
	dst = putUint64(dst, st.FingerprintMisses)
	return putUint64(dst, uint64(int64(st.MatrixCacheEntries)))
}

func getNetStats(src []byte) (placement.NetStats, []byte, error) {
	var st placement.NetStats
	var err error
	if st.InFlight, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.PeakInFlight, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.BytesIn, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.BytesOut, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.SparseMatrices, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.FingerprintHits, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.FingerprintMisses, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	var u uint64
	if u, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	st.MatrixCacheEntries = int(int64(u))
	return st, src, nil
}
