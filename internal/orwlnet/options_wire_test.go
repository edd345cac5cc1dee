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
// batch slot bound, the cost of the largest request a peer can send,
// and the refusal of the previous layout, which carried 24 more option
// bytes.

// TestBatchSlotBoundIsMinimalRequest: the batch bound is the size of
// the smallest legal request slot, and it stays above the 8 bytes a
// reserved slot pointer costs.
func TestBatchSlotBoundIsMinimalRequest(t *testing.T) {
	b, _, err := encodePlaceRequest(nil, &placement.PlaceRequest{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != minBatchSlotBytes {
		t.Fatalf("an empty request encodes to %d bytes, minBatchSlotBytes is %d", len(b), minBatchSlotBytes)
	}
	if minBatchSlotBytes <= 8 {
		t.Fatalf("minBatchSlotBytes %d does not bound the slot pointers", minBatchSlotBytes)
	}
}

// TestBatchMinimalSlotsDecode: a batch of k minimal slots decodes to k
// requests, and so does one of k {Strategy: "none"} slots.
func TestBatchMinimalSlotsDecode(t *testing.T) {
	for _, proto := range []placement.PlaceRequest{{}, {Strategy: "none"}} {
		for _, k := range []int{1, 2, 7, 64} {
			reqs := make([]*placement.PlaceRequest, k)
			for i := range reqs {
				req := proto
				reqs[i] = &req
			}
			b, _, err := encodePlaceBatchRequest(nil, reqs, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodePlaceBatchRequest(b, nil)
			if err != nil {
				t.Fatalf("%d slots of %+v: %v", k, proto, err)
			}
			if len(got) != k {
				t.Fatalf("%d slots of %+v decoded to %d requests", k, proto, len(got))
			}
			for i, req := range got {
				if req.Strategy != proto.Strategy || req.Options != proto.Options || !comm.NilAffinity(req.Matrix) {
					t.Fatalf("slot %d of %d decoded to %+v, want %+v", i, k, req, proto)
				}
			}
		}
	}
}

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

// TestV6PlaceFrameRefused: place and batch frames in the layout that
// carried 25 option bytes, captured from the last build that spoke it,
// are refused with ErrVersion by the decoders and by a live server.
func TestV6PlaceFrameRefused(t *testing.T) {
	v6 := map[string]struct {
		op  byte
		hex string
	}{
		"place": {opPlaceCompute, "5300000007000000000000000a060400666967320900747265656d61746368040000000000000001000000000000d03f080000000000000002000000000000000204040101c0e0030401c0e0030401c0e0030001c0e003"},
		"batch": {opPlaceBatch, "8400000007000000000000000d060200000000000000060400666967320900747265656d61746368040000000000000001000000000000d03f0800000000000000020000000000000003d3bd961e1e3d5db3040600000e00726f756e642d726f62696e2d707503000000000000000000000000000000000000000000000000000000000000000000"},
	}
	_, addr := startFixtureServer(t)
	conn := rawConn(t, addr)
	exchange(t, conn, goldenFrame(t, "hello/req"))
	for name, f := range v6 {
		frame, err := hex.DecodeString(f.hex)
		if err != nil {
			t.Fatal(err)
		}
		m, err := readMessage(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.op != f.op {
			t.Fatalf("%s: frame op %d, want %d", name, m.op, f.op)
		}
		if f.op == opPlaceCompute {
			_, _, err = decodePlaceRequest(m.payload, newMatrixCache(4))
		} else {
			_, err = decodePlaceBatchRequest(m.payload, newMatrixCache(4))
		}
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("%s: decode err = %v, want ErrVersion", name, err)
		}
		if resp := exchange(t, conn, frame); resp.op != statusVersion || !errors.Is(responseError(resp), ErrVersion) {
			t.Fatalf("%s: server answered status %d %q, want statusVersion", name, resp.op, resp.payload)
		}
	}
}
