package orwlnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// TestWireFrameAllocatesAsBytesArrive: four peers that each send only
// the header of a maximal frame, and stall, cost the daemon — and a
// client's read loop — under 1 MiB between them, not 4 × 64 MiB.
func TestWireFrameAllocatesAsBytesArrive(t *testing.T) {
	// The header of a maximal frame: length, call id and op.
	header := append(binary.LittleEndian.AppendUint32(nil, maxMessage), 1, 0, 0, 0, 0, 0, 0, 0, opPlaceCompute)
	const peers = 4
	measure := func(stall func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stall()
		time.Sleep(200 * time.Millisecond) // let the read loops block on the missing body
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	_, addr := startFixtureServer(t)
	if got := measure(func() {
		for i := 0; i < peers; i++ {
			conn := rawConn(t, addr)
			if _, err := conn.Write(header); err != nil {
				t.Fatal(err)
			}
		}
	}); got >= 1<<20 {
		t.Fatalf("%d stalled frame headers allocated %d bytes in the server, want < 1 MiB", peers, got)
	}

	// The client side: a fake daemon answers the handshake, then sends
	// the header of a maximal response and stalls.
	if got := measure(func() {
		for i := 0; i < peers; i++ {
			cli, srv := net.Pipe()
			t.Cleanup(func() { cli.Close(); srv.Close() })
			go func() {
				hello, err := readMessage(srv, nil)
				if err != nil {
					return
				}
				writeMessage(srv, message{callID: hello.callID, op: statusOK, payload: []byte{protoVersion}})
				srv.Write(header)
			}()
			c, err := dialContext(context.Background(), "pipe", WithDialFunc(func(context.Context, string, string) (net.Conn, error) { return cli, nil }))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
		}
	}); got >= 1<<20 {
		t.Fatalf("%d stalled response headers allocated %d bytes in the clients, want < 1 MiB", peers, got)
	}
}

// TestWireTruncatedFramesFail: a stream that ends between frames is
// io.EOF; one that ends anywhere inside a frame — in the prefix, the
// header, or a body that grows past frameChunk — is
// io.ErrUnexpectedEOF, pooled body or not.
func TestWireTruncatedFramesFail(t *testing.T) {
	big := make([]byte, 3*frameChunk+5)
	for i := range big {
		big[i] = byte(i)
	}
	for _, payload := range [][]byte{nil, []byte("hello"), big} {
		var frame bytes.Buffer
		if err := writeMessage(&frame, message{callID: 7, op: opPlaceCompute, payload: payload}); err != nil {
			t.Fatal(err)
		}
		full := frame.Bytes()
		cuts := []int{0, 1, 3, 4, 5, 12}
		for _, c := range []int{13, 14, 13 + frameChunk - 1, 13 + frameChunk, 13 + frameChunk + 1, 13 + 2*frameChunk, len(full) - 1} {
			if c < len(full) {
				cuts = append(cuts, c)
			}
		}
		for _, pooled := range []func(uint64, byte) bool{nil, pooledRequest} {
			for _, cut := range cuts {
				want := io.ErrUnexpectedEOF
				if cut == 0 {
					want = io.EOF
				}
				if _, err := readMessage(bytes.NewReader(full[:cut]), pooled); !errors.Is(err, want) {
					t.Fatalf("%d-byte payload cut at %d: err = %v, want %v", len(payload), cut, err, want)
				}
			}
			m, err := readMessage(bytes.NewReader(full), pooled)
			if err != nil || m.callID != 7 || m.op != opPlaceCompute || !bytes.Equal(m.payload, payload) {
				t.Fatalf("%d-byte payload: read back (%d, %d, %d bytes, %v)", len(payload), m.callID, m.op, len(m.payload), err)
			}
		}
	}
}
