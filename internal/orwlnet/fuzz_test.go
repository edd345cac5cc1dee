package orwlnet

import (
	"bytes"
	"math"
	"testing"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
)

// Native fuzz targets for the byte-level attack surface of the v4
// transport: the sparse matrix codec and the frame header are the two
// decoders that parse wire bytes with length/count fields a hostile
// peer controls. Both must never panic, and whatever they accept must
// re-encode to an equivalent value (run with `go test -fuzz=FuzzX`).

func FuzzSparseMatrixCodec(f *testing.F) {
	// Seed with real encodings so the fuzzer starts from the valid
	// grammar, plus adversarial shapes the unit tests rejected.
	ring := comm.Ring(16, 1<<20, true)
	runs, _ := sparseSize(ring)
	f.Add(appendSparseBody(nil, ring, runs))
	f.Add(appendSparseBody(nil, comm.NewMatrix(3), 0))
	// A hostile body whose runs carry +0: zeros sent as a value run.
	f.Add(codec.PutUvarint(codec.PutUvarint(codec.PutUvarint(codec.PutUvarint(codec.PutUvarint(nil, 3), 1), 2), 4), 0))
	// A -0 run: folded into the fingerprint, stored as no cell.
	f.Add([]byte{4, 1, 0, 3, 0x80, 0x01})
	f.Add(codec.PutUvarint(nil, 1<<40))
	f.Add(codec.PutUvarint(codec.PutUvarint(nil, 4), 1<<30))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, fp, _, err := getSparseBody(data)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		// A -0 cell is folded by its bits but not stored, so only a body
		// without one folds comm.Fingerprint of the decoded matrix.
		if want := comm.Fingerprint(m); fp != want && !holdsNegZero(data) {
			t.Fatalf("decode folded %016x, comm.Fingerprint of the decoded matrix is %016x", fp, want)
		}
		fp = comm.Fingerprint(m)
		// Anything accepted must survive a re-encode round trip with
		// its fingerprint intact — byte-identity with the input is not
		// guaranteed (the input may encode zeros as value runs), with
		// the reference encoder it is.
		re, reFP, _ := codec.PutMatrixField(nil, m)
		if ref := putMatrixCompact(nil, m.Dense()); !bytes.Equal(re, ref) {
			t.Fatalf("emitter wrote %d bytes, reference %d", len(re), len(ref))
		}
		got, gotFP, rest, err := getMatrix(re, nil, codec.MaxMatrixOrder, nil)
		if err != nil {
			t.Fatalf("re-encoded matrix rejected: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("re-encode left %d trailing bytes", len(rest))
		}
		if reFP != fp || gotFP != fp || comm.Fingerprint(got) != fp {
			t.Fatal("fingerprint drifted across re-encode")
		}
	})
}

// requestBody returns the matrix body of an accepted place request: the
// bytes after its matrix field's mode byte.
func requestBody(req []byte) []byte {
	rest, _ := checkVersion(req)
	_, rest, _ = codec.GetString(rest) // machine
	_, rest, _ = codec.GetString(rest) // strategy
	_, rest, _ = codec.GetUint64(rest) // entities
	_, rest, _ = codec.GetBool(rest)   // control threads
	return rest[1:]
}

// holdsNegZero reports whether an accepted sparse body has a -0 run.
func holdsNegZero(body []byte) bool {
	var order, runs uint64
	body, _ = codec.GetUvarints(body, &order, &runs)
	for ; runs > 0; runs-- { // the triplets: gap, length, value
		var raw uint64
		body, _ = codec.GetUvarints(body, new(uint64), new(uint64), &raw)
		if math.Float64bits(codec.UnzigzagFloat(raw)) == 1<<63 {
			return true
		}
	}
	return false
}

func FuzzFrameHeader(f *testing.F) {
	var buf bytes.Buffer
	writeMessage(&buf, message{callID: 7, op: opPlaceCompute, payload: []byte("hello")})
	f.Add(buf.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := readMessage(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeMessage(&out, msg); err != nil {
			t.Fatalf("accepted frame refused re-encoding: %v", err)
		}
		back, err := readMessage(&out, nil)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if back.callID != msg.callID || back.op != msg.op || !bytes.Equal(back.payload, msg.payload) {
			t.Fatal("frame round trip mangled the message")
		}
	})
}

// FuzzPlaceRequestDecode feeds arbitrary bytes to the serving side's
// full request decoder (seen-matrix table attached, as in the daemon):
// every mode byte, varint and length field is reachable, and none may
// panic or over-allocate. Whatever decodes carries the fingerprint the
// decoder folded, which must be comm.Fingerprint of its matrix.
func FuzzPlaceRequestDecode(f *testing.F) {
	req := &placement.PlaceRequest{Strategy: "treematch", Matrix: chainMatrix(4)}
	body := encodeReq(req, false)
	f.Add(body)
	f.Add(encodeReq(req, true))
	f.Add([]byte{protoVersion})
	// The same request with its sparse body's runs spelled out as +0
	// value runs around the nonzeros.
	head := body[:len(body)-len(putMatrixCompact(nil, req.Matrix.Dense()))]
	f.Add(append(append([]byte(nil), head...), codec.MatSparse, 4, 3, 0, 1, 0, 0, 2, 0xbe, 0x71, 0, 13, 0))
	// A -0 run.
	f.Add(append(append([]byte(nil), head...), codec.MatSparse, 4, 1, 0, 3, 0x80, 0x01))
	f.Fuzz(func(t *testing.T, data []byte) {
		mc := newMatrixCache(4)
		// A -0 cell is folded by its bits but not stored, so only a body
		// without one folds comm.Fingerprint of the decoded matrix.
		if r, err := decodePlaceRequest(data, mc); err == nil && !comm.NilAffinity(r.Matrix) &&
			r.MatrixFP != comm.Fingerprint(r.Matrix) && !holdsNegZero(requestBody(data)) {
			t.Fatalf("decode folded %016x, comm.Fingerprint of the decoded matrix is %016x", r.MatrixFP, comm.Fingerprint(r.Matrix))
		}
	})
}
