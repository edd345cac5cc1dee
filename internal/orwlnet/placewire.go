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

// Binary codecs for the placement RPCs. Fixed-width integers are
// little-endian, small ones varints; strings are uint16-length-
// prefixed (putString); optional values carry a presence byte. Every
// payload starts with the protocol version byte (protoVersion), so a
// peer speaking another layout is refused before any field is decoded.
//
// The encoders are append-style (dst ...[]byte) so hot paths reuse a
// pooled payload buffer: a placement request carries a full matrix
// (up to 8n² bytes) and the response three assignment slices, which
// used to be reallocated for every RPC.

// payloadPool recycles encode buffers between RPCs. A buffer is safe
// to recycle once its message has been written to the connection —
// neither writeMessage nor the codecs retain it. Put boxes the slice
// header (one ~24-byte allocation); what it saves is the payload
// body — up to 8n²+ bytes of matrix per request — so the trade is
// heavily in the pool's favour and the buffer can travel from the
// encoder to the writer as a plain []byte.
var payloadPool = sync.Pool{
	New: func() any { return make([]byte, 0, 4096) },
}

// getPayloadBuf returns an empty buffer with pooled capacity; encode
// with the append-style codecs and recycle the result with
// putPayloadBuf after the message hits the wire.
func getPayloadBuf() []byte { return payloadPool.Get().([]byte)[:0] }

// putPayloadBuf recycles a payload buffer for a later encode.
func putPayloadBuf(b []byte) {
	if cap(b) > 0 {
		payloadPool.Put(b[:0])
	}
}

func putFloat64(dst []byte, v float64) []byte {
	return putUint64(dst, math.Float64bits(v))
}

func getFloat64(src []byte) (float64, []byte, error) {
	u, rest, err := getUint64(src)
	return math.Float64frombits(u), rest, err
}

func putBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func getBool(src []byte) (bool, []byte, error) {
	if len(src) < 1 {
		return false, nil, fmt.Errorf("orwlnet: truncated bool")
	}
	return src[0] != 0, src[1:], nil
}

// putMatrixDenseBody appends the dense matrix body (order, row-major
// float64 entries) that follows the matDense mode byte.
func putMatrixDenseBody(dst []byte, m *comm.Matrix) []byte {
	n := m.Order()
	dst = putUint64(dst, uint64(n))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dst = putFloat64(dst, m.At(i, j))
		}
	}
	return dst
}

func getMatrixDenseBody(rest []byte) (*comm.Matrix, []byte, error) {
	n64, rest, err := getUint64(rest)
	if err != nil {
		return nil, nil, err
	}
	n := int(n64)
	if n < 0 || n > maxMessage/8 || len(rest) < 8*n*n {
		return nil, nil, fmt.Errorf("orwlnet: truncated matrix (order %d)", n)
	}
	m := comm.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var v float64
			v, rest, _ = getFloat64(rest)
			m.Set(i, j, v)
		}
	}
	return m, rest, nil
}

func putOptions(dst []byte, o placement.Options) []byte {
	dst = putBool(dst, o.ControlThreads)
	dst = putFloat64(dst, o.ControlVolumeFraction)
	dst = putUint64(dst, uint64(int64(o.ExhaustiveLimit)))
	return putUint64(dst, uint64(int64(o.RefineRounds)))
}

func getOptions(src []byte) (placement.Options, []byte, error) {
	var o placement.Options
	var err error
	if o.ControlThreads, src, err = getBool(src); err != nil {
		return o, nil, err
	}
	if o.ControlVolumeFraction, src, err = getFloat64(src); err != nil {
		return o, nil, err
	}
	var u uint64
	if u, src, err = getUint64(src); err != nil {
		return o, nil, err
	}
	o.ExhaustiveLimit = int(int64(u))
	if u, src, err = getUint64(src); err != nil {
		return o, nil, err
	}
	o.RefineRounds = int(int64(u))
	return o, src, nil
}

// assignment flag bits.
const (
	asgnUnbound        = 1 << 0
	asgnOversubscribed = 1 << 1
)

func putCacheStats(dst []byte, st placement.CacheStats) []byte {
	dst = putUint64(dst, st.Hits)
	dst = putUint64(dst, st.Misses)
	return putUint64(dst, uint64(int64(st.Entries)))
}

func getCacheStats(src []byte) (placement.CacheStats, []byte, error) {
	var st placement.CacheStats
	var err error
	if st.Hits, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.Misses, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	var u uint64
	if u, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	st.Entries = int(int64(u))
	return st, src, nil
}

func putAdaptiveStats(dst []byte, st placement.AdaptiveStats) []byte {
	dst = putUint64(dst, st.Epochs)
	dst = putUint64(dst, st.DriftEpochs)
	dst = putUint64(dst, st.Remaps)
	dst = putUint64(dst, st.Rejected)
	return putFloat64(dst, st.LastDrift)
}

func getAdaptiveStats(src []byte) (placement.AdaptiveStats, []byte, error) {
	var st placement.AdaptiveStats
	var err error
	if st.Epochs, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.DriftEpochs, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.Remaps, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.Rejected, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.LastDrift, src, err = getFloat64(src); err != nil {
		return st, nil, err
	}
	return st, src, nil
}

// checkVersion consumes the leading version byte of a payload,
// refusing any value but protoVersion.
func checkVersion(src []byte) ([]byte, error) {
	if len(src) < 1 {
		return nil, fmt.Errorf("orwlnet: missing version byte")
	}
	if v := src[0]; v != protoVersion {
		return nil, fmt.Errorf("orwlnet: %w: payload version %d, this build speaks %d", ErrVersion, v, protoVersion)
	}
	return src[1:], nil
}

// encodePlaceRequest frames one placement request. When fpOnly is set
// and the request carries a matrix, the matrix field is its
// comm.Fingerprint reference instead of a body — the caller asserts
// the serving peer has already seen the body and is prepared to resend
// it on an ErrUnknownMatrix answer.
func encodePlaceRequest(dst []byte, req *placement.PlaceRequest, fpOnly bool) []byte {
	dst = append(dst, protoVersion)
	dst = putString(dst, req.Machine)
	dst = putString(dst, req.Strategy)
	dst = putUint64(dst, uint64(int64(req.Entities)))
	dst = putOptions(dst, req.Options)
	if fpOnly && req.Matrix != nil {
		return putMatrixFingerprint(dst, reqFP(req), req.Matrix.Order())
	}
	return putMatrixCompact(dst, req.Matrix)
}

// reqFP returns the request matrix's fingerprint, trusting the
// caller's precomputed MatrixFP hint when set.
func reqFP(req *placement.PlaceRequest) uint64 {
	if req.MatrixFP != 0 {
		return req.MatrixFP
	}
	return comm.Fingerprint(req.Matrix)
}

// decodePlaceRequest decodes one request and returns the remaining
// bytes, so the batch codec can walk a request list. mc is the serving
// side's seen-matrix table: decoded bodies are remembered in it and
// fingerprint references resolved from it (nil on the client and in
// codec tests: bodies decode, fingerprint references error).
func decodePlaceRequest(src []byte, mc *matrixCache) (*placement.PlaceRequest, []byte, error) {
	rest, err := checkVersion(src)
	if err != nil {
		return nil, nil, err
	}
	req := &placement.PlaceRequest{}
	if req.Machine, rest, err = getString(rest); err != nil {
		return nil, nil, err
	}
	if req.Strategy, rest, err = getString(rest); err != nil {
		return nil, nil, err
	}
	var u uint64
	if u, rest, err = getUint64(rest); err != nil {
		return nil, nil, err
	}
	req.Entities = int(int64(u))
	if req.Options, rest, err = getOptions(rest); err != nil {
		return nil, nil, err
	}
	if req.Matrix, req.MatrixFP, rest, err = getMatrix(rest, mc); err != nil {
		return nil, nil, err
	}
	return req, rest, nil
}

func encodePlaceResponse(dst []byte, resp *placement.PlaceResponse) []byte {
	dst = append(dst, protoVersion)
	dst = putString(dst, resp.Machine)
	dst = putString(dst, resp.Err)
	dst = putBool(dst, resp.CacheHit)
	dst = putFloat64(dst, resp.Cost)
	dst = putFloat64(dst, resp.CrossNUMAVolume)
	dst = putCacheStats(dst, resp.Cache)
	dst = putUint64(dst, uint64(resp.ElapsedNS))
	return putAssignment(dst, resp.Assignment)
}

func decodePlaceResponse(src []byte) (*placement.PlaceResponse, []byte, error) {
	rest, err := checkVersion(src)
	if err != nil {
		return nil, nil, err
	}
	resp := &placement.PlaceResponse{}
	if resp.Machine, rest, err = getString(rest); err != nil {
		return nil, nil, err
	}
	if resp.Err, rest, err = getString(rest); err != nil {
		return nil, nil, err
	}
	if resp.CacheHit, rest, err = getBool(rest); err != nil {
		return nil, nil, err
	}
	if resp.Cost, rest, err = getFloat64(rest); err != nil {
		return nil, nil, err
	}
	if resp.CrossNUMAVolume, rest, err = getFloat64(rest); err != nil {
		return nil, nil, err
	}
	if resp.Cache, rest, err = getCacheStats(rest); err != nil {
		return nil, nil, err
	}
	var u uint64
	if u, rest, err = getUint64(rest); err != nil {
		return nil, nil, err
	}
	resp.ElapsedNS = int64(u)
	if resp.Assignment, rest, err = getAssignment(rest); err != nil {
		return nil, nil, err
	}
	return resp, rest, nil
}

// minBatchSlotBytes bounds the slot count of a batch frame against
// its remaining payload. The smallest legal request slot (version
// byte, empty machine and strategy, entities, options, absent matrix)
// is 39 bytes and the smallest response slot is larger; each reserved
// slot pointer costs 8 bytes, so any divisor comfortably above 8 keeps
// a hostile count field from amplifying a small frame into a huge
// backing-array allocation.
const minBatchSlotBytes = 32

// encodePlaceBatchRequest frames a request slice for opPlaceBatch:
// version byte, slot count, then every slot encoded exactly like a
// single request (own version byte included). fpOnly decides per slot
// whether its matrix crosses as a fingerprint reference (nil = always
// send bodies): the pooled client sends references for matrices the
// server has seen and bodies for the rest, within one batch frame.
func encodePlaceBatchRequest(dst []byte, reqs []*placement.PlaceRequest, fpOnly func(req *placement.PlaceRequest) bool) ([]byte, error) {
	dst = append(dst, protoVersion)
	dst = putUint64(dst, uint64(len(reqs)))
	for i, req := range reqs {
		if req == nil {
			return nil, fmt.Errorf("orwlnet: nil request in batch slot %d", i)
		}
		dst = encodePlaceRequest(dst, req, fpOnly != nil && fpOnly(req))
	}
	return dst, nil
}

// decodePlaceBatchRequest is the serving side's batch decode: matrix
// bodies are remembered in mc and fingerprint references resolved from
// it. One unknown fingerprint fails the whole frame with
// ErrUnknownMatrix, and the client answers by resending every slot
// with its body.
func decodePlaceBatchRequest(src []byte, mc *matrixCache) ([]*placement.PlaceRequest, error) {
	n, rest, err := getBatchCount(src)
	if err != nil {
		return nil, err
	}
	reqs := make([]*placement.PlaceRequest, 0, n)
	for i := uint64(0); i < n; i++ {
		var req *placement.PlaceRequest
		if req, rest, err = decodePlaceRequest(rest, mc); err != nil {
			return nil, fmt.Errorf("orwlnet: batch slot %d: %w", i, err)
		}
		reqs = append(reqs, req)
	}
	return reqs, nil
}

// getBatchCount reads a batch frame's version byte and slot count,
// refusing a count its payload cannot hold.
func getBatchCount(src []byte) (uint64, []byte, error) {
	rest, err := checkVersion(src)
	if err != nil {
		return 0, nil, err
	}
	n, rest, err := getUint64(rest)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(rest)/minBatchSlotBytes) {
		return 0, nil, fmt.Errorf("%w batch slot count %d", errAbsurd, n)
	}
	return n, rest, nil
}

// encodePlaceBatchResponse frames a response slice: version byte, slot
// count, then every slot encoded like a single response.
func encodePlaceBatchResponse(dst []byte, resps []*placement.PlaceResponse) ([]byte, error) {
	dst = append(dst, protoVersion)
	dst = putUint64(dst, uint64(len(resps)))
	for i, resp := range resps {
		if resp == nil {
			return nil, fmt.Errorf("orwlnet: nil response in batch slot %d", i)
		}
		dst = encodePlaceResponse(dst, resp)
	}
	return dst, nil
}

func decodePlaceBatchResponse(src []byte) ([]*placement.PlaceResponse, error) {
	n, rest, err := getBatchCount(src)
	if err != nil {
		return nil, err
	}
	resps := make([]*placement.PlaceResponse, 0, n)
	for i := uint64(0); i < n; i++ {
		var resp *placement.PlaceResponse
		if resp, rest, err = decodePlaceResponse(rest); err != nil {
			return nil, fmt.Errorf("orwlnet: batch slot %d: %w", i, err)
		}
		resps = append(resps, resp)
	}
	return resps, nil
}

// encodeServiceStats frames the stats payload: the service
// description, then the adaptive, transport and control-plane
// counters.
func encodeServiceStats(dst []byte, st placement.ServiceStats) []byte {
	dst = append(dst, protoVersion)
	dst = putString(dst, st.TopologyName)
	dst = putUint64(dst, st.TopologySignature)
	dst = putUint64(dst, st.Places)
	dst = putCacheStats(dst, st.Cache)
	dst = putStringList(dst, st.Strategies)
	dst = putStringList(dst, st.Machines)
	dst = putAdaptiveStats(dst, st.Adaptive)
	dst = putNetStats(dst, st.Net)
	return putFleetStats(dst, st.Fleet)
}

func decodeServiceStats(src []byte) (placement.ServiceStats, error) {
	var st placement.ServiceStats
	rest, err := checkVersion(src)
	if err != nil {
		return st, err
	}
	if st.TopologyName, rest, err = getString(rest); err != nil {
		return st, err
	}
	if st.TopologySignature, rest, err = getUint64(rest); err != nil {
		return st, err
	}
	if st.Places, rest, err = getUint64(rest); err != nil {
		return st, err
	}
	if st.Cache, rest, err = getCacheStats(rest); err != nil {
		return st, err
	}
	if st.Strategies, rest, err = getStringList(rest); err != nil {
		return st, err
	}
	if st.Machines, rest, err = getStringList(rest); err != nil {
		return st, err
	}
	if st.Adaptive, rest, err = getAdaptiveStats(rest); err != nil {
		return st, err
	}
	if st.Net, rest, err = getNetStats(rest); err != nil {
		return st, err
	}
	if st.Fleet, _, err = getFleetStats(rest); err != nil {
		return st, err
	}
	return st, nil
}

func putStringList(dst []byte, list []string) []byte {
	dst = putUint64(dst, uint64(len(list)))
	for _, s := range list {
		dst = putString(dst, s)
	}
	return dst
}

// getStringList decodes a uint64-count-prefixed string list. Each name
// needs at least its 2-byte length prefix; bounding by the remaining
// payload keeps a tiny hostile message from reserving a huge backing
// array.
func getStringList(src []byte) ([]string, []byte, error) {
	n, rest, err := getUint64(src)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)/2) {
		return nil, nil, fmt.Errorf("%w string count %d", errAbsurd, n)
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		var s string
		if s, rest, err = getString(rest); err != nil {
			return nil, nil, err
		}
		out = append(out, s)
	}
	return out, rest, nil
}

// Matrix compaction: the dependency matrices that dominate
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
//     ErrUnknownMatrix on a miss so the client resends the body.

// Matrix wire modes: the byte that opens every matrix field.
const (
	matAbsent      = 0
	matDense       = 1
	matSparse      = 2
	matFingerprint = 3
)

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

// putMatrixCompact encodes a matrix field, choosing
// the smaller of the sparse and dense encodings. The choice is
// invisible to the decoder (both carry their mode byte), so density
// drift in a workload never changes the protocol.
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

// getMatrix decodes a matrix field. mc is the serving
// side's seen-matrix table: full bodies are remembered in it and
// fingerprint references resolved from it; a nil mc (client-side
// decode, codec tests) still decodes bodies but refuses fingerprint
// references. The second result is the matrix's comm.Fingerprint when
// the decode path established it anyway (resolving a reference, or
// remembering a body) — the serving side forwards it as the request's
// MatrixFP hint so the engine never re-hashes; zero when unknown.
func getMatrix(src []byte, mc *matrixCache) (*comm.Matrix, uint64, []byte, error) {
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
			return nil, 0, nil, fmt.Errorf("orwlnet: %w %016x", ErrUnknownMatrix, fp)
		}
		if uint64(m.Order()) != order {
			// A fingerprint collision between different orders would
			// silently place the wrong matrix; refuse like a miss so the
			// client resends the body.
			return nil, 0, nil, fmt.Errorf("orwlnet: %w %016x (order %d, cached %d)", ErrUnknownMatrix, fp, order, m.Order())
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

// putIntSlice encodes a possibly-nil []int as zigzag varints (values
// may be negative, e.g. unbound control PUs): PU indices are small, so
// one byte each instead of eight — an assignment's three slices
// dominate a warm response. Nil and empty are distinguished: the count
// holds 0 for nil and len+1 otherwise.
func putIntSlice(dst []byte, s []int) []byte {
	if s == nil {
		return putUvarint(dst, 0)
	}
	dst = putUvarint(dst, uint64(len(s)+1))
	for _, v := range s {
		dst = putUvarint(dst, zigzag(int64(v)))
	}
	return dst
}

func getIntSlice(src []byte) ([]int, []byte, error) {
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

// putAssignment encodes a possibly-nil assignment: presence byte,
// strategy, flags, control mode, then the three PU slices.
func putAssignment(dst []byte, a *placement.Assignment) []byte {
	if a == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	dst = putString(dst, a.Strategy)
	dst = append(dst, assignmentFlags(a), byte(a.Mode))
	dst = putIntSlice(dst, a.ComputePU)
	dst = putIntSlice(dst, a.ControlPU)
	return putIntSlice(dst, a.CoreOf)
}

// assignmentFlags packs an assignment's asgn* flag bits.
func assignmentFlags(a *placement.Assignment) byte {
	var flags byte
	if a.Unbound {
		flags |= asgnUnbound
	}
	if a.Oversubscribed {
		flags |= asgnOversubscribed
	}
	return flags
}

func getAssignment(src []byte) (*placement.Assignment, []byte, error) {
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
	if a.ComputePU, rest, err = getIntSlice(rest); err != nil {
		return nil, nil, err
	}
	if a.ControlPU, rest, err = getIntSlice(rest); err != nil {
		return nil, nil, err
	}
	if a.CoreOf, rest, err = getIntSlice(rest); err != nil {
		return nil, nil, err
	}
	return a, rest, nil
}

// NetStats codec (a stats payload field).

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
