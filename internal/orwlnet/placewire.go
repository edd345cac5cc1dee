package orwlnet

import (
	"container/list"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
)

// Binary codecs for the placement RPCs. Fixed-width integers are
// little-endian, small ones varints; strings are uint16-length-
// prefixed (codec.PutString); optional values carry a presence byte. Every
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
// name too long for its field is refused.
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
		dst, _ = codec.PutMatrixField(dst, m)
		return dst, hint, nil
	}
	// The cold path: encode the body, and swap it for the reference when
	// the fingerprint its walk folded turns out to be known.
	at := len(dst)
	dst, fp := codec.PutMatrixField(dst, m)
	if known != nil && known(fp) {
		dst = putMatrixFingerprint(dst[:at], fp, m.Order())
	}
	return dst, fp, nil
}

// decodePlaceRequest decodes one request. mc is the serving side's
// seen-matrix table: decoded bodies are remembered in it and
// fingerprint references resolved from it (nil on the client and in
// codec tests: bodies decode, fingerprint references error).
func decodePlaceRequest(src []byte, mc *matrixCache) (*placement.PlaceRequest, error) {
	rest, err := checkVersion(src)
	if err != nil {
		return nil, err
	}
	req := &placement.PlaceRequest{}
	if req.Machine, rest, err = codec.GetString(rest); err != nil {
		return nil, err
	}
	if req.Strategy, rest, err = codec.GetString(rest); err != nil {
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
	if req.Matrix, req.MatrixFP, _, err = getMatrix(rest, mc, codec.MaxMatrixOrder, nil); err != nil {
		return nil, err
	}
	return req, nil
}

func encodePlaceResponse(dst []byte, resp *placement.PlaceResponse) []byte {
	dst = append(dst, protoVersion)
	dst = codec.PutString(dst, resp.Machine)
	dst = codec.PutBool(dst, resp.CacheHit)
	dst = codec.PutFloat64(dst, resp.Cost)
	dst = codec.PutFloat64(dst, resp.CrossNUMAVolume)
	dst = putCacheStats(dst, resp.Cache)
	dst = codec.PutUint64(dst, uint64(resp.ElapsedNS))
	return codec.PutAssignment(dst, resp.Assignment)
}

// decodePlaceResponse decodes one response; its assignment is memo
// itself when it carries memo's values (codec.GetAssignment).
func decodePlaceResponse(src []byte, memo *placement.Assignment) (*placement.PlaceResponse, []byte, error) {
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
	if resp.Assignment, rest, err = codec.GetAssignment(rest, memo); err != nil {
		return nil, nil, err
	}
	return resp, rest, nil
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

// Matrix fields are codec.PutMatrixField's (a sparse run-length body
// or the dense layout, whichever is smaller) plus one wire-only mode:
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
// (see codec.GetMatrixField). mc is the serving side's seen-matrix table:
// full bodies are remembered in it and fingerprint references resolved
// from it; a nil mc (client-side decode, codec tests) still decodes
// bodies but refuses fingerprint references. The second result is the
// matrix's comm.Fingerprint (zero without a matrix), folded while a
// body decodes or read from a reference — the serving side forwards it
// as the request's MatrixFP hint so the engine never re-hashes.
func getMatrix(src []byte, mc *matrixCache, maxOrder int, dst *comm.Sparse) (comm.Affinity, uint64, []byte, error) {
	if len(src) == 0 || src[0] != matFingerprint {
		m, fp, rest, err := codec.GetMatrixField(src, maxOrder, dst)
		if err == nil && m != nil && mc != nil {
			if src[0] == codec.MatSparse {
				mc.sparseSeen.Add(1)
			}
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
	m  comm.Affinity
}

// defaultMatrixCacheEntries bounds the seen-matrix table. Matrices are
// at most maxMessage bytes each by construction; a fleet workload has
// a handful of live patterns, so a small table covers the warm path
// while bounding worst-case memory.
const defaultMatrixCacheEntries = 64

func newMatrixCache(max int) *matrixCache {
	return &matrixCache{max: max, order: list.New(), entries: make(map[uint64]*list.Element)}
}

func (c *matrixCache) lookup(fp uint64) (comm.Affinity, bool) {
	c.mu.Lock()
	el, ok := c.entries[fp]
	var m comm.Affinity
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

func (c *matrixCache) remember(fp uint64, m comm.Affinity) {
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
