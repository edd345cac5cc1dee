package orwlnet

import (
	"bytes"
	"testing"

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
	f.Add(putUvarint(nil, 1<<40))
	f.Add(putUvarint(putUvarint(nil, 4), 1<<30))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, _, err := getSparseBody(data)
		if err != nil {
			return // rejected is fine; panicking is not
		}
		// Anything accepted must survive a re-encode round trip with
		// its fingerprint intact — byte-identity is not guaranteed (the
		// input may encode zeros as value runs), value-identity is.
		runs, size := sparseSize(m)
		re := appendSparseBody(nil, m, runs)
		if len(re) != size {
			t.Fatalf("sparseSize predicted %d bytes, encoder wrote %d", size, len(re))
		}
		got, rest, err := getSparseBody(re)
		if err != nil {
			t.Fatalf("re-encoded matrix rejected: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("re-encode left %d trailing bytes", len(rest))
		}
		if comm.Fingerprint(got) != comm.Fingerprint(m) {
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
		msg, err := readMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeMessage(&out, msg); err != nil {
			t.Fatalf("accepted frame refused re-encoding: %v", err)
		}
		back, err := readMessage(&out)
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
// panic or over-allocate.
func FuzzPlaceRequestDecode(f *testing.F) {
	req := &placement.PlaceRequest{Strategy: "treematch", Matrix: chainMatrix(4)}
	f.Add(encodePlaceRequest(nil, req, false))
	f.Add(encodePlaceRequest(nil, req, true))
	f.Add([]byte{protoVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		mc := newMatrixCache(4)
		_, _, _ = decodePlaceRequest(data, mc)
		_, _ = decodePlaceBatchRequest(data, mc)
	})
}
