package orwlnet

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// A place request carries its mapper options as one byte, the
// ControlThreads flag. These tests pin what follows from that: the
// cost of the largest request a peer can send, and the refusal of the
// retired layouts: protocol 6 carried 24 more option bytes, and
// protocol 7 answered with an error string no place call filled.

// TestMaxOrderPlaceAllocatesNoSlab: a sparse ring of the largest order
// the codec accepts, sent to a placement server and placed through
// LocalService.Place, costs a few MB process-wide with control threads
// on and off. An n² slab of that order is 67 MB.
func TestMaxOrderPlaceAllocatesNoSlab(t *testing.T) {
	top, err := topology.ByName("smp20e7")
	if err != nil {
		t.Fatal(err)
	}
	remote := startBenchService(t, top)
	const n = codec.MaxMatrixOrder
	ring := comm.NewSparse(n)
	for i := 0; i < n; i++ {
		ring.Set(i, (i+1)%n, 1<<16)
	}
	for _, ctl := range []bool{false, true} {
		req := &placement.PlaceRequest{
			Strategy: placement.TreeMatch, Entities: n, Matrix: ring,
			Options: placement.Options{ControlThreads: ctl},
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := remote.Place(context.Background(), req)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit || resp.Assignment.Entities() != n {
			t.Fatalf("ControlThreads %v: cache hit %v, %d entities placed", ctl, resp.CacheHit, resp.Assignment.Entities())
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
			t.Fatalf("ControlThreads %v: one order-%d placement allocated %d bytes, want < 8 MiB", ctl, n, got)
		} else {
			t.Logf("ControlThreads %v: one order-%d placement allocated %d KiB", ctl, n, got>>10)
		}
	}
}

// TestV6PlaceFrameRefused: a place frame in the layout that carried 25
// option bytes, captured from the last build that spoke it, is refused
// with ErrVersion by the decoder and by a live server.
func TestV6PlaceFrameRefused(t *testing.T) {
	refusePlaceFrame(t, "5300000007000000000000000a060400666967320900747265656d61746368040000000000000001000000000000d03f080000000000000002000000000000000204040101c0e0030401c0e0030401c0e0030001c0e003")
}

// TestV7PlaceFrameRefused: protocol 7 place frames, captured from the
// last build that spoke it, are refused with ErrVersion: the request
// by the decoder and by a live server, and the response, which still
// carried an error string, by the client's decoder.
func TestV7PlaceFrameRefused(t *testing.T) {
	refusePlaceFrame(t, "3b00000007000000000000000a070400666967320900747265656d617463680400000000000000010204040101c0e0030401c0e0030401c0e0030001c0e003")
	const resp = "6000000007000000000000000007040066696732000001000000000000294000000000000090400300000000000000010000000000000001000000000000009210000000000000010900747265656d617463680201050004080c0502010a0e0500020406"
	frame, err := hex.DecodeString(resp)
	if err != nil {
		t.Fatal(err)
	}
	m, err := readMessage(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodePlaceResponse(m.payload, nil); !errors.Is(err, ErrVersion) {
		t.Fatalf("response decode err = %v, want ErrVersion", err)
	}
}

// refusePlaceFrame checks that a place frame in a retired layout is
// refused with ErrVersion by the decoder and by a live server.
func refusePlaceFrame(t *testing.T, frameHex string) {
	t.Helper()
	_, addr := startFixtureServer(t)
	conn := rawConn(t, addr)
	exchange(t, conn, goldenFrame(t, "hello/req"))
	frame, err := hex.DecodeString(frameHex)
	if err != nil {
		t.Fatal(err)
	}
	m, err := readMessage(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.op != opPlaceCompute {
		t.Fatalf("frame op %d, want %d", m.op, opPlaceCompute)
	}
	if _, err := decodePlaceRequest(m.payload, newMatrixCache(4)); !errors.Is(err, ErrVersion) {
		t.Fatalf("decode err = %v, want ErrVersion", err)
	}
	if resp := exchange(t, conn, frame); resp.op != statusVersion || !errors.Is(responseError(resp), ErrVersion) {
		t.Fatalf("server answered status %d %q, want statusVersion", resp.op, resp.payload)
	}
}
