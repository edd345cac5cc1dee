package orwlnet

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/lru"
	"orwlplace/internal/placement"
)

// Binary codecs for the placement RPCs. Fixed-width integers are
// little-endian, small ones varints; strings are uint16-length-
// prefixed (codec.PutString); optional values carry a presence byte. Every
// payload starts with the protocol version byte (protoVersion), so a
// peer speaking another layout is refused before any field is decoded.
//
// The encoders are append-style (dst ...[]byte) so hot paths reuse a
// pooled payload buffer: a placement request carries a matrix body
// (a few bytes per nonzero run) and the response three assignment
// slices, which used to be reallocated for every RPC.

// payloadPool recycles encode buffers between RPCs. A buffer is safe
// to recycle once its message has been written to the connection —
// neither writeMessage nor the codecs retain it. The pool holds *[]byte
// holders, and the holders themselves come from holderPool, so a
// get/put round trip boxes nothing and allocates nothing, while the
// buffer travels from the encoder to the writer as a plain []byte.
var (
	payloadPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}
	holderPool  = sync.Pool{New: func() any { return new([]byte) }}
)

// getPayloadBuf returns an empty buffer with pooled capacity; encode
// with the append-style codecs and recycle the result with
// putPayloadBuf after the message hits the wire.
func getPayloadBuf() []byte {
	h := payloadPool.Get().(*[]byte)
	b := (*h)[:0]
	*h = nil
	holderPool.Put(h)
	return b
}

// putPayloadBuf recycles a payload buffer for a later encode.
func putPayloadBuf(b []byte) {
	if cap(b) > 0 {
		h := holderPool.Get().(*[]byte)
		*h = b[:0]
		payloadPool.Put(h)
	}
}

func putCacheStats(dst []byte, st placement.CacheStats) []byte {
	return codec.PutUint64s(dst, st.Hits, st.Misses, uint64(int64(st.Entries)))
}

func getCacheStats(src []byte) (placement.CacheStats, []byte, error) {
	var st placement.CacheStats
	var entries uint64
	src, err := codec.GetUint64s(src, &st.Hits, &st.Misses, &entries)
	st.Entries = int(int64(entries))
	return st, src, err
}

func putAdaptiveStats(dst []byte, st placement.AdaptiveStats) []byte {
	return codec.PutUint64s(dst, st.Epochs, st.DriftEpochs, st.Remaps, st.Rejected, math.Float64bits(st.LastDrift))
}

func getAdaptiveStats(src []byte) (placement.AdaptiveStats, []byte, error) {
	var st placement.AdaptiveStats
	var drift uint64
	src, err := codec.GetUint64s(src, &st.Epochs, &st.DriftEpochs, &st.Remaps, &st.Rejected, &drift)
	st.LastDrift = math.Float64frombits(drift)
	return st, src, err
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

// encodePlaceRequest frames one placement request and returns the
// matrix's comm.Fingerprint (zero without a matrix): the caller's
// MatrixFP hint, or else the fold of the one walk that encoded the
// body. known reports whether the serving peer holds a fingerprint's
// body (nil: assume it holds none); a matrix it holds crosses as the
// fingerprint reference instead, and the caller must be prepared to
// resend the body on an ErrUnknownMatrix answer. A machine or strategy
// name too long for its field is refused, and so is a matrix over the
// decoder's cell cap (a *codec.CellsError), before anything is sent.
func encodePlaceRequest(dst []byte, req *placement.PlaceRequest, known func(fp uint64) bool) ([]byte, uint64, error) {
	if err := codec.CheckStrings(req.Machine, req.Strategy); err != nil {
		return nil, 0, err
	}
	dst = append(dst, protoVersion)
	dst = codec.PutString(dst, req.Machine)
	dst = codec.PutString(dst, req.Strategy)
	dst = codec.PutUint64(dst, uint64(int64(req.Entities)))
	dst = codec.PutBool(dst, req.Options.ControlThreads)
	m, hint := req.Matrix, req.MatrixFP
	if comm.NilAffinity(m) {
		return append(dst, codec.MatAbsent), 0, nil
	}
	if hint != 0 {
		// The warm path: the hint names the matrix without a walk.
		if known != nil && known(hint) {
			return putMatrixFingerprint(dst, hint, m.Order()), hint, nil
		}
		dst, _, err := codec.PutMatrixField(dst, m, false)
		return dst, hint, err
	}
	// The cold path: encode the body, and swap it for the reference when
	// the fingerprint its walk folded turns out to be known.
	at := len(dst)
	dst, fp, err := codec.PutMatrixField(dst, m, true)
	if err == nil && known != nil && known(fp) {
		dst = putMatrixFingerprint(dst[:at], fp, m.Order())
	}
	return dst, fp, err
}

// placeWorker is the state a placement worker owns and reuses: the
// request it decodes into and the machine and strategy names it has
// served, at most maxServedNames, which decode without allocating.
type placeWorker struct {
	req   placement.PlaceRequest
	names []string
}

const maxServedNames = 16

// getName reads a string field: a served name it equals, or a fresh
// string.
func (w *placeWorker) getName(src []byte) (string, []byte, error) {
	b, rest, err := codec.GetStringBytes(src)
	for _, s := range w.names {
		if s == string(b) {
			return s, rest, err
		}
	}
	return string(b), rest, err
}

// served interns the names of a request Place answered.
func (w *placeWorker) served(req *placement.PlaceRequest) {
	for _, s := range [...]string{req.Machine, req.Strategy} {
		if len(w.names) < maxServedNames && !slices.Contains(w.names, s) {
			w.names = append(w.names, s)
		}
	}
}

// decodePlaceRequest decodes one request into w's, which it returns.
// mc is the serving side's seen-matrix table: decoded bodies are
// remembered in it and fingerprint references resolved from it (nil on
// the client and in codec tests: bodies decode, fingerprint references
// error).
func decodePlaceRequest(src []byte, mc *matrixCache, w *placeWorker) (*placement.PlaceRequest, error) {
	rest, err := checkVersion(src)
	if err != nil {
		return nil, err
	}
	req := &w.req
	*req = placement.PlaceRequest{}
	if req.Machine, rest, err = w.getName(rest); err != nil {
		return nil, err
	}
	if req.Strategy, rest, err = w.getName(rest); err != nil {
		return nil, err
	}
	var u uint64
	if u, rest, err = codec.GetUint64(rest); err != nil {
		return nil, err
	}
	req.Entities = int(int64(u))
	if req.Options.ControlThreads, rest, err = codec.GetBool(rest); err != nil {
		return nil, err
	}
	m, fp, _, err := getMatrix(rest, mc, codec.MaxMatrixOrder, nil, true)
	if err != nil {
		return nil, err
	}
	if m != nil { // a nil *comm.Sparse in the interface would not read as absent
		req.Matrix, req.MatrixFP = m, fp // the sent body's, -0 cells folded
	}
	return req, nil
}

// encodePlaceResponse frames one response, a cache hit's assignment from
// answers (nil: always encoded).
func encodePlaceResponse(dst []byte, resp *placement.PlaceResponse, answers *answerMemo) []byte {
	dst = append(dst, protoVersion)
	dst = codec.PutString(dst, resp.Machine)
	dst = codec.PutBool(dst, resp.CacheHit)
	dst = codec.PutFloat64(dst, resp.Cost)
	dst = codec.PutFloat64(dst, resp.CrossNUMAVolume)
	dst = putCacheStats(dst, resp.Cache)
	dst = codec.PutUint64(dst, uint64(resp.ElapsedNS))
	return answers.put(dst, resp.Assignment, resp.CacheHit)
}

// answerMemo is the server's encoded-answer memo, the mirror of the
// client's decode memo (fpEntry): the PutAssignment bytes of each
// immutable assignment a cache hit was answered with, in an LRU keyed
// by the pointer, so a repeated hit appends them instead of encoding.
// An entry is kept only if it fits memoMaxBytes.
type answerMemo struct {
	mu  sync.Mutex
	lru *lru.Cache[*placement.Assignment, []byte]
}

// put appends a's encoding, from the memo when hit.
func (m *answerMemo) put(dst []byte, a *placement.Assignment, hit bool) []byte {
	if m == nil || !hit || a == nil {
		return codec.PutAssignment(dst, a)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if enc, ok := m.lru.Get(a); ok {
		return append(dst, enc...)
	}
	at := len(dst)
	if dst = codec.PutAssignment(dst, a); memoFits(a, dst[at:]) {
		m.lru.Put(a, bytes.Clone(dst[at:]))
	}
	return dst
}

// assignmentMemo is a decoded assignment and the bytes it was decoded
// from.
type assignmentMemo struct {
	a   *placement.Assignment
	enc []byte
}

// decodePlaceResponse decodes one response and returns its assignment's
// encoding, which aliases src or memo. An assignment field that opens
// with memo's bytes carries memo's values, so it decodes to memo's
// assignment itself: a repeated answer allocates nothing.
func decodePlaceResponse(src []byte, memo *assignmentMemo) (*placement.PlaceResponse, []byte, error) {
	rest, err := checkVersion(src)
	if err != nil {
		return nil, nil, err
	}
	resp := &placement.PlaceResponse{}
	if resp.Machine, rest, err = codec.GetString(rest); err != nil {
		return nil, nil, err
	}
	if resp.CacheHit, rest, err = codec.GetBool(rest); err != nil {
		return nil, nil, err
	}
	var cost, cross, entries, elapsed uint64
	if rest, err = codec.GetUint64s(rest, &cost, &cross, &resp.Cache.Hits, &resp.Cache.Misses, &entries, &elapsed); err != nil {
		return nil, nil, err
	}
	resp.Cost, resp.CrossNUMAVolume = math.Float64frombits(cost), math.Float64frombits(cross)
	resp.Cache.Entries, resp.ElapsedNS = int(int64(entries)), int64(elapsed)
	if memo != nil && bytes.HasPrefix(rest, memo.enc) {
		resp.Assignment = memo.a
		return resp, memo.enc, nil
	}
	var after []byte
	if resp.Assignment, after, err = codec.GetAssignment(rest); err != nil {
		return nil, nil, err
	}
	return resp, rest[:len(rest)-len(after)], nil
}

// encodeServiceStats frames the stats payload: the service
// description, then the adaptive, transport and control-plane
// counters.
func encodeServiceStats(dst []byte, st placement.ServiceStats) []byte {
	dst = append(dst, protoVersion)
	dst = codec.PutString(dst, st.TopologyName)
	dst = codec.PutUint64(dst, st.TopologySignature)
	dst = codec.PutUint64(dst, st.Places)
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
	if st.TopologyName, rest, err = codec.GetString(rest); err != nil {
		return st, err
	}
	if rest, err = codec.GetUint64s(rest, &st.TopologySignature, &st.Places); err != nil {
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
	dst = codec.PutUint64(dst, uint64(len(list)))
	for _, s := range list {
		dst = codec.PutString(dst, s)
	}
	return dst
}

// getStringList decodes a uint64-count-prefixed string list. Each name
// needs at least its 2-byte length prefix; bounding by the remaining
// payload keeps a tiny hostile message from reserving a huge backing
// array.
func getStringList(src []byte) ([]string, []byte, error) {
	n, rest, err := codec.GetUint64(src)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)/2) {
		return nil, nil, fmt.Errorf("%w string count %d", errAbsurd, n)
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		var s string
		if s, rest, err = codec.GetString(rest); err != nil {
			return nil, nil, err
		}
		out = append(out, s)
	}
	return out, rest, nil
}

// Matrix fields are codec.PutMatrixField's (a run-length body) plus one
// wire-only mode:
// once a matrix body has crossed the wire, later requests send its
// 8-byte comm.Fingerprint and the server resolves the body from its
// seen-matrix table, answering ErrUnknownMatrix on a miss so the
// client resends the body.
const matFingerprint = 3

// putMatrixFingerprint encodes a fingerprint-only matrix reference:
// the 8-byte comm.Fingerprint plus the order (so the server can
// sanity-check the resolved body against what the client meant).
func putMatrixFingerprint(dst []byte, fp uint64, order int) []byte {
	dst = append(dst, matFingerprint)
	dst = codec.PutUint64(dst, fp)
	return codec.PutUvarint(dst, uint64(order))
}

// getMatrix decodes a matrix field of order at most maxOrder into dst
// (see codec.GetMatrixField), folding a body's fingerprint when fold is
// set. mc is the serving side's seen-matrix table:
// full bodies are remembered in it and fingerprint references resolved
// from it; a nil mc (client-side decode, codec tests) still decodes
// bodies but refuses fingerprint references. The second result is the
// matrix's comm.Fingerprint (zero without a matrix), folded while a
// body decodes or read from a reference — the serving side forwards it
// as the request's MatrixFP hint so the engine never re-hashes.
func getMatrix(src []byte, mc *matrixCache, maxOrder int, dst *comm.Sparse, fold bool) (*comm.Sparse, uint64, []byte, error) {
	if len(src) == 0 || src[0] != matFingerprint {
		m, fp, rest, err := codec.GetMatrixField(src, maxOrder, dst, fold)
		if err == nil && m != nil && mc != nil {
			mc.sparseSeen.Add(1)
			mc.remember(fp, m)
		}
		return m, fp, rest, err
	}
	fp, rest, err := codec.GetUint64(src[1:])
	if err != nil {
		return nil, 0, nil, err
	}
	order, rest, err := codec.GetUvarint(rest)
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
}

// matrixCache is the daemon's seen-matrix table: an LRU of recently
// decoded request matrices keyed by comm.Fingerprint, shared across
// every connection so a pooled client warms it once. Cached matrices
// are shared read-only with the placement engines (nothing downstream
// of decode mutates a request matrix).
type matrixCache struct {
	mu  sync.Mutex
	lru *lru.Cache[uint64, *comm.Sparse]

	sparseSeen atomic.Uint64
	fpHits     atomic.Uint64
	fpMisses   atomic.Uint64
}

// defaultMatrixCacheEntries bounds the seen-matrix table. Matrices are
// at most maxMessage bytes each by construction; a fleet workload has
// a handful of live patterns, so a small table covers the warm path
// while bounding worst-case memory.
const defaultMatrixCacheEntries = 64

func newMatrixCache(max int) *matrixCache {
	return &matrixCache{lru: lru.New[uint64, *comm.Sparse](max)}
}

func (c *matrixCache) lookup(fp uint64) (*comm.Sparse, bool) {
	c.mu.Lock()
	m, ok := c.lru.Get(fp)
	c.mu.Unlock()
	if !ok {
		c.fpMisses.Add(1)
		return nil, false
	}
	c.fpHits.Add(1)
	return m, true
}

func (c *matrixCache) remember(fp uint64, m *comm.Sparse) {
	c.mu.Lock()
	c.lru.Put(fp, m)
	c.mu.Unlock()
}

func (c *matrixCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// NetStats codec (a stats payload field).

func putNetStats(dst []byte, st placement.NetStats) []byte {
	return codec.PutUint64s(dst, st.InFlight, st.PeakInFlight, st.BytesIn, st.BytesOut, st.SparseMatrices,
		st.FingerprintHits, st.FingerprintMisses, uint64(int64(st.MatrixCacheEntries)))
}

func getNetStats(src []byte) (placement.NetStats, []byte, error) {
	var st placement.NetStats
	var entries uint64
	src, err := codec.GetUint64s(src, &st.InFlight, &st.PeakInFlight, &st.BytesIn, &st.BytesOut, &st.SparseMatrices,
		&st.FingerprintHits, &st.FingerprintMisses, &entries)
	st.MatrixCacheEntries = int(int64(entries))
	return st, src, err
}
