package orwlnet

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"orwlplace/internal/codec"
	"orwlplace/internal/orwl"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// startPlacementServer runs a server exporting one location and a
// placement service for TinyHT.
func startPlacementServer(t *testing.T) (*Server, *placement.LocalService, string) {
	t.Helper()
	prog := orwl.MustProgram(1)
	loc, err := prog.AddLocation(orwl.Loc(0, "l"))
	if err != nil {
		t.Fatal(err)
	}
	loc.Scale(8)
	eng, err := placement.NewEngine(topology.TinyHT())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := placement.NewLocalService(eng)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, map[string]*orwl.Location{"l": loc}, WithPlacement(svc))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, svc, lis.Addr().String()
}

func TestRemotePlacementEndToEnd(t *testing.T) {
	_, local, addr := startPlacementServer(t)
	ctx := context.Background()
	c, err := dialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	remote := c.placementService()

	req := &placement.PlaceRequest{Strategy: placement.TreeMatch, Matrix: chainMatrix(4)}
	resp, err := remote.Place(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Place(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// The local call above is the second identical request, so it hits
	// the cache the remote call populated — same assignment either way.
	if !want.CacheHit {
		t.Error("local follow-up call missed the cache the remote call filled")
	}
	if len(resp.Assignment.ComputePU) != len(want.Assignment.ComputePU) {
		t.Fatalf("remote assignment %v, local %v", resp.Assignment, want.Assignment)
	}
	for i := range resp.Assignment.ComputePU {
		if resp.Assignment.ComputePU[i] != want.Assignment.ComputePU[i] {
			t.Fatalf("remote assignment %v, local %v", resp.Assignment.ComputePU, want.Assignment.ComputePU)
		}
	}
	if resp.Cost != want.Cost {
		t.Errorf("remote cost %g, local %g", resp.Cost, want.Cost)
	}

	// Topology transfers losslessly: the client-side signature equals
	// the server's.
	top, err := remote.Topology(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := remote.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := placement.Signature(top); got != stats.TopologySignature {
		t.Errorf("transferred topology signature %#x, server reports %#x", got, stats.TopologySignature)
	}
	if stats.TopologyName != "TinyHT" {
		t.Errorf("topology name %q", stats.TopologyName)
	}
	if stats.Places < 2 {
		t.Errorf("places = %d, want >= 2", stats.Places)
	}

	// The location ops still work on the same connection.
	if size, err := c.Size("l"); err != nil || size != 8 {
		t.Errorf("Size = %d, %v; want 8", size, err)
	}
}

func TestRemotePlacementConcurrent(t *testing.T) {
	_, _, addr := startPlacementServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	remote := c.placementService()
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				n := 3 + (w+i)%3
				resp, err := remote.Place(ctx, &placement.PlaceRequest{
					Strategy: placement.TreeMatch, Matrix: chainMatrix(n),
				})
				if err != nil {
					errs <- err
					return
				}
				if resp.Assignment.Entities() != n {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats, err := remote.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Places != 80 {
		t.Errorf("places = %d, want 80", stats.Places)
	}
	if stats.Cache.Hits+stats.Cache.Misses != 80 {
		t.Errorf("hits+misses = %d, want 80", stats.Cache.Hits+stats.Cache.Misses)
	}
}

// TestPlacementRequiresHandshake talks raw protocol: every op on a
// connection that has not completed opHello — a placement RPC and a
// location op alike — is refused with the version status, and both
// are served once the handshake is done.
func TestPlacementRequiresHandshake(t *testing.T) {
	_, _, addr := startPlacementServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	send := func(id uint64, op byte, payload []byte) message {
		t.Helper()
		if err := writeMessage(conn, message{callID: id, op: op, payload: payload}); err != nil {
			t.Fatal(err)
		}
		resp, err := readMessage(conn, nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	place := encodeReq(&placement.PlaceRequest{Strategy: placement.TreeMatch, Matrix: chainMatrix(3)}, false)
	if resp := send(1, opPlaceCompute, place); !errors.Is(responseError(resp), ErrVersion) {
		t.Fatalf("placement RPC before handshake answered status %d: %s", resp.op, resp.payload)
	}
	if resp := send(2, opSize, codec.PutString(nil, "l")); !errors.Is(responseError(resp), ErrVersion) {
		t.Fatalf("location op before handshake answered status %d: %s", resp.op, resp.payload)
	}
	if resp := send(3, opHello, []byte{protoVersion, protoVersion}); resp.op != statusOK || resp.payload[0] != protoVersion {
		t.Fatalf("handshake failed: %v %s", resp.op, resp.payload)
	}
	if resp := send(4, opSize, codec.PutString(nil, "l")); resp.op != statusOK {
		t.Fatalf("location op after handshake rejected: %s", resp.payload)
	}
	if resp := send(5, opPlaceCompute, place); resp.op != statusOK {
		t.Fatalf("placement RPC after handshake rejected: %s", resp.payload)
	}
}

// TestHelloVersionNegotiation: the server answers protoVersion to any
// range holding it and refuses every range without it.
func TestHelloVersionNegotiation(t *testing.T) {
	_, _, addr := startPlacementServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i, c := range []struct {
		min, max byte
		ok       bool
	}{
		{0, 200, true}, // a client from the future still shares this version
		{protoVersion, protoVersion, true},
		{0, protoVersion - 1, false},
		{protoVersion + 1, protoVersion + 5, false},
		{protoVersion + 1, protoVersion - 1, false},
	} {
		if err := writeMessage(conn, message{callID: uint64(i + 1), op: opHello, payload: []byte{c.min, c.max}}); err != nil {
			t.Fatal(err)
		}
		resp, err := readMessage(conn, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.ok && (resp.op != statusOK || len(resp.payload) != 1 || resp.payload[0] != protoVersion) {
			t.Errorf("hello [%d,%d] answered status %d %v, want [%d]", c.min, c.max, resp.op, resp.payload, protoVersion)
		}
		if !c.ok && !errors.Is(responseError(resp), ErrVersion) {
			t.Errorf("hello [%d,%d] answered status %d %q, want ErrVersion", c.min, c.max, resp.op, resp.payload)
		}
	}
}

func TestPlacementOnLocationOnlyServer(t *testing.T) {
	prog := orwl.MustProgram(1)
	loc, err := prog.AddLocation(orwl.Loc(0, "l"))
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, map[string]*orwl.Location{"l": loc})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The handshake succeeds (the protocol is versioned server-wide),
	// but the RPCs report the missing service.
	remote := c.placementService()
	if _, err := remote.Place(context.Background(), &placement.PlaceRequest{
		Strategy: placement.TreeMatch, Matrix: chainMatrix(3),
	}); err == nil {
		t.Fatal("placement served by a server with no placement service")
	}
}

// TestAdaptiveStatsOverRPC runs a live server and checks the adaptive
// counters cross the wire end to end.
func TestAdaptiveStatsOverRPC(t *testing.T) {
	top, err := topology.ByName("tinyht")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := placement.NewEngine(top)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := placement.NewLocalService(eng)
	if err != nil {
		t.Fatal(err)
	}
	m := placement.Fixed("trace", chainMatrix(4))
	rec, err := placement.NewReconciler(eng, m, nil, placement.AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	svc.AttachReconciler(rec)
	if err := rec.Prime(m); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := rec.Epoch(); err != nil {
			t.Fatal(err)
		}
	}

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, nil, WithPlacement(svc))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.placementService().Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Adaptive.Epochs != 4 {
		t.Errorf("remote adaptive epochs = %d, want 4", st.Adaptive.Epochs)
	}
}

func TestNewServerNothingToExport(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	if _, err := NewServer(lis, nil); err == nil {
		t.Fatal("server with neither locations nor placement accepted")
	}
	eng, err := placement.NewEngine(topology.TinyFlat())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := placement.NewLocalService(eng)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, nil, WithPlacement(svc))
	if err != nil {
		t.Fatalf("pure placement daemon rejected: %v", err)
	}
	go srv.Serve()
	srv.Close()
}

// TestCloseDrainsBlockedAwait: Close must return even when a handler
// goroutine is parked in opAwait behind a grant held by another (also
// dying) client — connection teardown withdraws the dead clients'
// queued requests.
func TestCloseDrainsBlockedAwait(t *testing.T) {
	srv, _, addr := startPlacementServer(t)

	holder, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	hw, err := holder.Insert("l", orwl.Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := hw.Acquire(); err != nil {
		t.Fatal(err)
	}

	waiter, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	ww, err := waiter.Insert("l", orwl.Write)
	if err != nil {
		t.Fatal(err)
	}
	acquireDone := make(chan error, 1)
	go func() { acquireDone <- ww.Acquire() }()
	time.Sleep(20 * time.Millisecond) // let opAwait park server-side

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a handler goroutine blocked in Await")
	}
	<-acquireDone // the waiter's call fails or returns once its conn dies
}

func TestDialContextCancellation(t *testing.T) {
	// A listener that accepts but never replies: the handshake must be
	// bounded by the context instead of hanging.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := dialContext(ctx, lis.Addr().String()); err == nil {
		t.Fatal("dial against a mute server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial took %v despite a 50ms context", elapsed)
	}
}
