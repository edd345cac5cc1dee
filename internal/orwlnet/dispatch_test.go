package orwlnet

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"orwlplace/internal/comm"
	"orwlplace/internal/orwl"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// dispatchServer serves svc on loopback and returns the server with
// its address; the server is closed when the test ends.
func dispatchServer(t *testing.T, svc placement.Service) (*Server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, nil, WithPlacement(svc))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}

// helloConn dials addr raw and completes the version handshake.
func helloConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn := rawConn(t, addr)
	var hello bytes.Buffer
	if err := writeMessage(&hello, message{op: opHello, payload: []byte{protoVersion, protoVersion}}); err != nil {
		t.Fatal(err)
	}
	if m := exchange(t, conn, hello.Bytes()); m.op != statusOK {
		t.Fatalf("hello: status %d: %s", m.op, m.payload)
	}
	return conn
}

// placeFrames returns count placement frames, call ids 1.., each an
// oblivious 8-entity request.
func placeFrames(t *testing.T, count int) []byte {
	t.Helper()
	var out bytes.Buffer
	payload, _, err := encodePlaceRequest(nil, &placement.PlaceRequest{Strategy: "round-robin-pu", Entities: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= count; id++ {
		if err := writeMessage(&out, message{callID: uint64(id), op: opPlaceCompute, payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// TestPlaceWorkerHitAllocatesOnlyResponse: a fingerprint-only hit
// through a worker's decode → Place → encode path makes at most one
// allocation, the *PlaceResponse that placement.Service.Place returns.
// The request decodes into the worker's own state, the machine and
// strategy names come from its intern table, and the assignment's bytes
// from the server's answer memo.
func TestPlaceWorkerHitAllocatesOnlyResponse(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector drops pooled buffers at random")
	}
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine("smp20e7", topology.SMP20E7()); err != nil {
		t.Fatal(err)
	}
	srv, _ := dispatchServer(t, fleet)
	st := &connState{reqs: make(map[uint64]*orwl.RawRequest)}
	st.hello.Store(true)
	req := &placement.PlaceRequest{Machine: "smp20e7", Strategy: placement.TreeMatch, Matrix: comm.Ring(160, 1<<16, true), Entities: 160}
	body, _, err := encodePlaceRequest(nil, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := encodePlaceRequest(nil, req, func(uint64) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) >= len(body) {
		t.Fatalf("the reference (%d B) is no shorter than the body (%d B)", len(ref), len(body))
	}
	w := new(placeWorker)
	serve := func(payload []byte) *placement.PlaceResponse {
		out, _, err := srv.handle(st, message{op: opPlaceCompute, payload: payload}, w)
		if err != nil {
			t.Fatal(err)
		}
		defer putPayloadBuf(out)
		resp, _, err := decodePlaceResponse(out, nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	miss := serve(body) // computes the mapping and remembers the body
	hit := serve(ref)   // interns the names, memoises the answer
	if miss.CacheHit || !hit.CacheHit || !slices.Equal(hit.Assignment.ComputePU, miss.Assignment.ComputePU) {
		t.Fatalf("miss then hit: CacheHit %v, %v; assignments equal %v", miss.CacheHit, hit.CacheHit,
			slices.Equal(hit.Assignment.ComputePU, miss.Assignment.ComputePU))
	}
	if memo := serve(ref); !slices.Equal(memo.Assignment.CoreOf, miss.Assignment.CoreOf) {
		t.Fatal("the memoised answer differs from the computed one")
	}
	if n := srv.answers.lru.Len(); n != 1 {
		t.Fatalf("the answer memo holds %d entries after one hit assignment, want 1", n)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		out, _, err := srv.handle(st, message{op: opPlaceCompute, payload: ref}, w)
		if err != nil {
			t.Fatal(err)
		}
		putPayloadBuf(out)
	}); allocs > 1 {
		t.Errorf("a fingerprint-only hit made %v allocations on the server, want ≤ 1", allocs)
	}
}

// TestPipelinedPlaceFramesStartNoGoroutinePerFrame: 1,000 placement
// frames pipelined on one connection are served by the fixed workers.
// A goroutine per frame would park hundreds of goroutines on the
// workers while the connection's read loop ran ahead.
func TestPipelinedPlaceFramesStartNoGoroutinePerFrame(t *testing.T) {
	const frames = 1000
	eng, err := placement.NewEngine(topology.TinyHT())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := placement.NewLocalService(eng)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := dispatchServer(t, svc)
	conn := helloConn(t, addr)
	stream := placeFrames(t, frames)
	base := runtime.NumGoroutine()
	wrote := make(chan error, 1)
	go func() { _, err := conn.Write(stream); wrote <- err }()
	br := bufio.NewReader(conn)
	peak := 0
	for i := 0; i < frames; i++ {
		m, err := readMessage(br, nil)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if m.op != statusOK {
			t.Fatalf("response %d: status %d: %s", i, m.op, m.payload)
		}
		peak = max(peak, runtime.NumGoroutine()-base)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	// The writer above is the one goroutine the test starts; a few more
	// are the runtime's and the network poller's.
	if peak > 8 {
		t.Errorf("serving %d pipelined placement frames added up to %d goroutines, want ≤ 8", frames, peak)
	}
}

// stallService answers no Place until the server's context ends.
type stallService struct{ placement.Service }

func (stallService) Place(ctx context.Context, _ *placement.PlaceRequest) (*placement.PlaceResponse, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestCloseWithQueuedPlaceFrames: Close returns promptly while every
// worker is busy, the queue is full and the connection's read loop is
// blocked on it, and no worker outlives it.
func TestCloseWithQueuedPlaceFrames(t *testing.T) {
	// Counted, not assumed zero: a server another test left open keeps
	// its own workers.
	workers := func() int {
		buf := make([]byte, 1<<20)
		return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("(*Server).servePlacement"))
	}
	before := workers()
	srv, addr := dispatchServer(t, stallService{})
	conn := helloConn(t, addr)
	if _, err := conn.Write(placeFrames(t, 4*placeDispatchParallelism)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); len(srv.placeQ) < cap(srv.placeQ) ||
		srv.placeInFlight.Load() < int64(placeDispatchParallelism); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("queue %d/%d, %d in flight: the frames never backed up", len(srv.placeQ), cap(srv.placeQ), srv.placeInFlight.Load())
		}
	}
	if got := workers() - before; got != placeDispatchParallelism {
		t.Fatalf("%d placement workers serving, want %d", got, placeDispatchParallelism)
	}
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close with queued placement frames did not return within 2 s")
	}
	for deadline := time.Now().Add(time.Second); workers() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d placement workers outlived Close", workers()-before)
		}
	}
}
