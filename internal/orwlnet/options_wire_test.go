package orwlnet

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"
	"time"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/ctrlplane"
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

// TestV8ReportFrameRefused: a protocol 8 observed report, captured from
// the last build that spoke it, is refused with ErrVersion by the
// decoder and by a live server. Protocol 9 added the base-coded matrix
// mode; the full frame's layout is unchanged but for the version byte.
func TestV8ReportFrameRefused(t *testing.T) {
	refuseReportFrame(t, "2300000007000000000000000f0801010204040101c0e0030401c0e0030401c0e0030001c0e003")
}

// TestV9DenseReportFrameRefused: a protocol 9 observed report carrying
// a dense matrix field (mode 1, order 4, sixteen float64 cells),
// captured from the last build that spoke it, is refused with
// ErrVersion by the decoder and by a live server. Protocol 10 dropped
// the dense layout: every matrix field is the run-length body.
func TestV9DenseReportFrameRefused(t *testing.T) {
	refuseReportFrame(t, "9500000007000000000000000f090102010400000000000000555555555555d53f000000000000d03f9a9999999999c93f555555555555c53f922449922449c23f000000000000c03f1cc7711cc771bc3f9a9999999999b93f46175d74d145b73f555555555555b53f143bb1133bb1b33f922449922449b23f111111111111b13f000000000000b03f1e1e1e1e1e1eae3f1cc7711cc771ac3f")
}

// TestV10RemapFrameRefused: protocol 10 remap frames, captured from
// the last build that spoke it, are refused with ErrVersion: the
// complete and the delta frame by the decoder, and a complete frame
// answering a subscription by the client's watch. Protocol 11 gave both
// kinds one layout: order and the two index lists, then the assignment.
func TestV10RemapFrameRefused(t *testing.T) {
	const complete = "460000000700000000000000000a0004006669673204bfd003010900747265656d6174636800001100020a0608040c0e10121416181a1c1e0011000004020402060608080a0a0c0c0e0e"
	const delta = "2d0000000700000000000000000a0104006669673204bfd003100900747265656d61746368000002010002030502030201"
	var frames [][]byte
	for _, h := range []string{complete, delta} {
		raw, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		m, err := readMessage(bytes.NewReader(raw), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeRemapFrame(m.payload); !errors.Is(err, ErrVersion) {
			t.Fatalf("decode of % x: err = %v, want ErrVersion", m.payload, err)
		}
		frames = append(frames, raw)
	}
	addr, subs := startFakeDeltaServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rs, err := DialPlacementService(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	res := make(chan error, 1)
	go func() {
		_, err := rs.WatchRemaps(ctx, "fig2")
		res <- err
	}()
	var sub fakeSub
	select {
	case sub = <-subs:
	case <-ctx.Done():
		t.Fatal("no subscription reached the fake daemon")
	}
	m, _ := readMessage(bytes.NewReader(frames[0]), nil)
	if err := writeMessage(sub.conn, message{callID: sub.callID, op: statusOK, payload: m.payload}); err != nil {
		t.Fatal(err)
	}
	if err := <-res; !errors.Is(err, ErrVersion) {
		t.Fatalf("watch err = %v, want ErrVersion", err)
	}
}

// refuseReportFrame checks that an observed report frame in a retired
// layout is refused with ErrVersion by the decoder and by a live server.
func refuseReportFrame(t *testing.T, frameHex string) {
	t.Helper()
	frame, err := hex.DecodeString(frameHex)
	if err != nil {
		t.Fatal(err)
	}
	m, err := readMessage(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.op != opObservedReport {
		t.Fatalf("frame op %d, want %d", m.op, opObservedReport)
	}
	if _, _, _, err := decodeObservedReport(m.payload, ctrlplane.DefaultMaxLeaseTasks, nil); !errors.Is(err, ErrVersion) {
		t.Fatalf("decode err = %v, want ErrVersion", err)
	}
	_, addr := startFixtureServer(t)
	conn := rawConn(t, addr)
	exchange(t, conn, goldenFrame(t, "hello/req"))
	if resp := exchange(t, conn, frame); resp.op != statusVersion || !errors.Is(responseError(resp), ErrVersion) {
		t.Fatalf("server answered status %d %q, want statusVersion", resp.op, resp.payload)
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
	if _, err := decodePlaceRequest(m.payload, newMatrixCache(4), new(placeWorker)); !errors.Is(err, ErrVersion) {
		t.Fatalf("decode err = %v, want ErrVersion", err)
	}
	if resp := exchange(t, conn, frame); resp.op != statusVersion || !errors.Is(responseError(resp), ErrVersion) {
		t.Fatalf("server answered status %d %q, want statusVersion", resp.op, resp.payload)
	}
}
