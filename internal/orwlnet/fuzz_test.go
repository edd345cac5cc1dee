package orwlnet

import (
	"bytes"
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
	f.Add(codec.PutUvarint(nil, 1<<40))
	f.Add(codec.PutUvarint(codec.PutUvarint(nil, 4), 1<<30))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, fp, _, err := getSparseBody(data)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		if want := comm.Fingerprint(m); fp != want {
			t.Fatalf("decode folded %016x, comm.Fingerprint of the decoded matrix is %016x", fp, want)
		}
		// Anything accepted must survive a re-encode round trip with
		// its fingerprint intact — byte-identity with the input is not
		// guaranteed (the input may encode zeros as value runs), with
		// the reference encoder it is.
		re, reFP := codec.PutMatrixField(nil, m)
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
	f.Fuzz(func(t *testing.T, data []byte) {
		mc := newMatrixCache(4)
		check := func(r *placement.PlaceRequest) {
			if !comm.NilAffinity(r.Matrix) && r.MatrixFP != comm.Fingerprint(r.Matrix) {
				t.Fatalf("decode folded %016x, comm.Fingerprint of the decoded matrix is %016x", r.MatrixFP, comm.Fingerprint(r.Matrix))
			}
		}
		if r, err := decodePlaceRequest(data, mc); err == nil {
			check(r)
		}
	})
}
