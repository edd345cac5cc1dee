package orwlnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
)

// The two-walk matrix encoder the one-walk emitter replaced, kept as
// the reference its bytes are pinned against: sparseSize measures the
// sparse body in one pass over the cells, appendSparseBody writes it in
// a second, and putMatrixCompact picks the smaller of sparse and dense.

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
			bodyBytes += uvarintLen(uint64(gap)) + uvarintLen(uint64(runLen)) + uvarintLen(codec.ZigzagFloat(row[j]))
			gap = 0
			j += runLen
		}
	}
	bodyBytes += uvarintLen(uint64(n)) + uvarintLen(uint64(runs))
	return runs, bodyBytes
}

func appendSparseBody(dst []byte, m *comm.Matrix, runs int) []byte {
	n := m.Order()
	dst = codec.PutUvarint(dst, uint64(n))
	dst = codec.PutUvarint(dst, uint64(runs))
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
			dst = codec.PutUvarint(dst, uint64(gap))
			dst = codec.PutUvarint(dst, uint64(runLen))
			dst = codec.PutUvarint(dst, codec.ZigzagFloat(row[j]))
			gap = 0
			j += runLen
		}
	}
	return dst
}

// putMatrixDenseBody appends the dense body: the order, then the
// row-major cells as fixed-width float64s.
func putMatrixDenseBody(dst []byte, m *comm.Matrix) []byte {
	n := m.Order()
	dst = codec.PutUint64(dst, uint64(n))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dst = codec.PutFloat64(dst, m.At(i, j))
		}
	}
	return dst
}

// uvarintLen is the encoded size of v, by encoding/binary.
func uvarintLen(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}

// getSparseBody decodes a bare sparse body through the field decoder.
func getSparseBody(body []byte) (comm.Affinity, uint64, []byte, error) {
	return codec.GetMatrixField(append([]byte{codec.MatSparse}, body...), codec.MaxMatrixOrder, nil)
}

func putMatrixCompact(dst []byte, m *comm.Matrix) []byte {
	if m == nil {
		return append(dst, codec.MatAbsent)
	}
	n := m.Order()
	runs, sparseBytes := sparseSize(m)
	if sparseBytes >= 8+8*n*n {
		dst = append(dst, codec.MatDense)
		return putMatrixDenseBody(dst, m)
	}
	dst = append(dst, codec.MatSparse)
	return appendSparseBody(dst, m, runs)
}

// emitterCase is one seeded matrix of the equivalence test.
type emitterCase struct {
	n       int
	density float64
	values  []float64 // nil: full-entropy values
}

// build fills an order-n matrix: density of the cells drawn from values,
// plus, from order 4 up, the awkward cells — -0 and NaN, and an
// equal-value run that crosses a row end.
func (c emitterCase) build(seed int64) *comm.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := comm.NewMatrix(c.n)
	for i := 0; i < c.n; i++ {
		for j := 0; j < c.n; j++ {
			if rng.Float64() >= c.density {
				continue
			}
			if c.values == nil {
				m.Set(i, j, 1+rng.Float64()*1e9)
			} else {
				m.Set(i, j, c.values[rng.Intn(len(c.values))])
			}
		}
	}
	if c.n >= 4 && c.density > 0 {
		m.Set(0, 1, math.Copysign(0, -1))
		m.Set(1, 0, math.NaN())
		m.Set(1, c.n-1, 4096)
		m.Set(2, 0, 4096)
		m.Set(2, 1, 4096)
	}
	return m
}

// TestWireEmitterMatchesTwoWalkReference: over orders 0 to the codec
// limit and densities from empty to full, the one-walk emitter writes
// the reference encoder's bytes, and the fingerprint it folds, the one
// the decoder folds and comm.Fingerprint of the decoded matrix are all
// comm.Fingerprint of the input.
func TestWireEmitterMatchesTwoWalkReference(t *testing.T) {
	var cases []emitterCase
	for _, n := range []int{0, 1, 63, 160, 513} {
		for _, density := range []float64{0, 0.01, 0.06, 0.12, 0.5, 2} {
			cases = append(cases,
				emitterCase{n, density, []float64{1, 65536, 1 << 20, 1.5}},
				emitterCase{n, density, nil})
		}
	}
	// All zero at the codec's largest order: one trailing gap above 2¹⁶
	// cells, the fold's highest power table.
	cases = append(cases, emitterCase{n: codec.MaxMatrixOrder})
	for ci, c := range cases {
		name := fmt.Sprintf("n=%d/density=%g/runs=%v", c.n, c.density, c.values != nil)
		m := c.build(int64(ci))
		want := comm.Fingerprint(m)
		ref := putMatrixCompact([]byte{0xee}, m)
		got, fp := codec.PutMatrixField([]byte{0xee}, m)
		if !bytes.Equal(got, ref) {
			t.Fatalf("%s: emitter wrote %d bytes (mode %d), reference %d (mode %d); first difference at %d",
				name, len(got), got[1], len(ref), ref[1], firstDiff(got, ref))
		}
		back, decFP, rest, err := getMatrix(got[1:], nil, codec.MaxMatrixOrder, nil)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: decode: %v (%d trailing)", name, err, len(rest))
		}
		if !bitsEqual(m, back) {
			t.Fatalf("%s: round trip not bit-exact", name)
		}
		if fp != want || decFP != want || comm.Fingerprint(back) != want {
			t.Fatalf("%s: fingerprints emitter %016x, decoder %016x, decoded %016x, want %016x",
				name, fp, decFP, comm.Fingerprint(back), want)
		}
	}
}

// TestWireDecodeFoldsZeroValueRuns: a hostile body that spells zeros
// out as +0 value runs decodes to the matrix the canonical body gives,
// with the same folded fingerprint.
func TestWireDecodeFoldsZeroValueRuns(t *testing.T) {
	m := comm.NewMatrix(4)
	m.Set(0, 1, 2)
	m.Set(0, 2, 2)
	body := []byte{4, 3, 0, 1, 0, 0, 2, 0x40, 0, 13, 0} // (0,1,+0) (0,2,2.0) (0,13,+0)
	got, fp, rest, err := getSparseBody(body)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v (%d trailing)", err, len(rest))
	}
	if !bitsEqual(got, m) || fp != comm.Fingerprint(m) {
		t.Fatalf("decoded %v with %016x, want %v with %016x", got, fp, m, comm.Fingerprint(m))
	}
}

// TestWireBatchFingerprints: each request of a batch, encoded alone as
// its own place frame, returns its fingerprint — from the hint, the
// body walk, or zero for a request without a matrix — and crosses as a
// reference exactly when the peer knows it. The server folds the same
// fingerprint.
func TestWireBatchFingerprints(t *testing.T) {
	hinted, unhinted, known := chainMatrix(4), chainMatrix(5), chainMatrix(6)
	reqs := []*placement.PlaceRequest{
		{Strategy: "treematch", Matrix: hinted, MatrixFP: comm.Fingerprint(hinted)},
		{Strategy: "treematch", Matrix: unhinted},
		{Strategy: "round-robin-pu", Entities: 3},
		{Strategy: "treematch", Matrix: known},
	}
	isKnown := func(fp uint64) bool { return fp == comm.Fingerprint(known) }
	mc := newMatrixCache(4)
	mc.remember(comm.Fingerprint(known), known)
	for i, req := range reqs {
		enc, fp, err := encodePlaceRequest(nil, req, isKnown)
		if err != nil {
			t.Fatal(err)
		}
		if want := comm.Fingerprint(req.Matrix); fp != want {
			t.Errorf("request %d: fingerprint %016x, want %016x", i, fp, want)
		}
		back, err := decodePlaceRequest(enc, mc)
		if err != nil {
			t.Fatal(err)
		}
		if comm.NilAffinity(req.Matrix) != comm.NilAffinity(back.Matrix) || (!comm.NilAffinity(req.Matrix) && !bitsEqual(req.Matrix, back.Matrix)) {
			t.Errorf("request %d: matrix did not survive the frame", i)
		}
		if back.MatrixFP != fp {
			t.Errorf("request %d: server folded %016x, client %016x", i, back.MatrixFP, fp)
		}
	}
	if hits := mc.fpHits.Load(); hits != 1 {
		t.Errorf("%d requests crossed as references, want 1 (the known one)", hits)
	}
}

// TestWireBatchForgetsFromEncodedFingerprints places a batch of
// requests, one Place each, against a live server that has since lost
// one of their bodies: only the stale request misses, the stub forgets
// that one belief and resends that one body, and it knows every body
// again afterwards.
func TestWireBatchForgetsFromEncodedFingerprints(t *testing.T) {
	srv, _, addr := startPlacementServer(t)
	svc, err := DialPlacementService(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	kept, lost := chainMatrix(4), chainMatrix(5)
	reqs := []*placement.PlaceRequest{
		{Strategy: "treematch", Matrix: kept},
		{Strategy: "treematch", Matrix: lost},
		{Strategy: "round-robin-pu", Entities: 3},
	}
	place := func() {
		t.Helper()
		for i, req := range reqs {
			if resp, err := svc.Place(ctx, req); err != nil || resp.Assignment == nil {
				t.Fatalf("request %d: %+v, %v", i, resp, err)
			}
		}
	}
	place()
	srv.matrices = newMatrixCache(defaultMatrixCacheEntries) // the daemon keeps one body only
	srv.matrices.remember(comm.Fingerprint(kept), kept)
	place()
	if hits, misses := srv.matrices.fpHits.Load(), srv.matrices.fpMisses.Load(); hits != 1 || misses != 1 {
		t.Errorf("fingerprint hits %d, misses %d, want 1 and 1 (only the lost body resent)", hits, misses)
	}
	if n := srv.matrices.len(); n != 2 {
		t.Errorf("table holds %d bodies, want 2", n)
	}
	for _, m := range []*comm.Matrix{kept, lost} {
		if !svc.known.has(comm.Fingerprint(m)) {
			t.Error("stub forgot a body the daemon holds again")
		}
	}
}

// TestDecodeUvarintMatchesBinary pins the word-at-a-time varint decoder
// to encoding/binary on canonical varints followed by arbitrary bytes,
// and on random byte strings (overlong, truncated and overflowing ones
// included).
func TestDecodeUvarintMatchesBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	check := func(b []byte) {
		got, rest, err := codec.GetUvarint(b)
		n, ok := len(b)-len(rest), err == nil
		want, wn := binary.Uvarint(b)
		if ok != (wn > 0) || ok && (got != want || n != wn) {
			t.Fatalf("% x: decoded (%d, %d, %v), encoding/binary (%d, %d)", b, got, n, ok, want, wn)
		}
	}
	for k := 0; k < 200000; k++ {
		b := codec.PutUvarint(nil, rng.Uint64()>>uint(rng.Intn(64)))
		for tail := rng.Intn(10); tail > 0; tail-- {
			b = append(b, byte(rng.Intn(256)))
		}
		check(b)
		junk := make([]byte, rng.Intn(12))
		for i := range junk {
			junk[i] = byte(rng.Intn(256)) | byte(rng.Intn(2))<<7
		}
		check(junk)
	}
}
