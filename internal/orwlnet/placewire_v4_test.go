package orwlnet

import (
	"context"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/orwl"
	"orwlplace/internal/placement"
)

// The high-throughput transport: pipelined frames, pooled connections,
// sparse/fingerprint matrix payloads, varint responses, NetStats, and
// the server-side idle reaper. These tests cover the codecs
// bit-exactly and the fingerprint miss/resend protocol over a live
// server.

// bitsEqual compares two matrices cell by cell on raw float64 bits —
// the equality the sparse codec must preserve (NaNs and signed zeros
// included), since both wire peers fingerprint the decoded bits.
func bitsEqual(a, b comm.Affinity) bool {
	if a.Order() != b.Order() {
		return false
	}
	n := a.Order()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// withoutNegZero is m as a decoder stores it: a copy with every -0
// cell made +0, since sparse storage holds no zero.
func withoutNegZero(m *comm.Matrix) *comm.Matrix {
	c := m.Clone()
	for i := 0; i < c.Order(); i++ {
		for j := 0; j < c.Order(); j++ {
			if math.Float64bits(c.At(i, j)) == 1<<63 {
				c.Set(i, j, 0)
			}
		}
	}
	return c
}

func TestSparseMatrixRoundTrip(t *testing.T) {
	awkward := comm.NewMatrix(4)
	awkward.Set(0, 1, math.NaN())
	awkward.Set(1, 0, math.Copysign(0, -1)) // -0: nonzero bits, zero value
	awkward.Set(2, 3, 65536)
	awkward.Set(3, 3, 65536) // equal-value cells in separate runs
	cases := []*comm.Matrix{
		comm.Ring(16, 1<<20, true),
		chainMatrix(5),
		comm.NewMatrix(3), // all-zero: zero runs
		comm.NewMatrix(1),
		awkward,
	}
	for i, m := range cases {
		runs, size := sparseSize(m)
		enc := appendSparseBody(nil, m, runs)
		if len(enc) != size {
			t.Errorf("case %d: sparseSize predicted %d bytes, encoder wrote %d", i, size, len(enc))
		}
		got, fp, rest, err := getSparseBody(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if len(rest) != 0 {
			t.Errorf("case %d: %d trailing bytes", i, len(rest))
		}
		// A -0 cell is folded by its bits but stored as no cell.
		if !bitsEqual(withoutNegZero(m), got) {
			t.Errorf("case %d: sparse round trip not bit-exact", i)
		}
		if comm.Fingerprint(withoutNegZero(m)) != comm.Fingerprint(got) || fp != comm.Fingerprint(m) {
			t.Errorf("case %d: fingerprint drifted across the codec", i)
		}
	}
}

func TestMatrixCompactChoosesEncoding(t *testing.T) {
	// A ring is overwhelmingly zero: sparse must win.
	ring := comm.Ring(64, 1<<20, true)
	enc, _, _ := codec.PutMatrixField(nil, ring)
	if enc[0] != codec.MatSparse {
		t.Errorf("ring encoded as mode %d, want sparse", enc[0])
	}
	denseSize := 1 + 8 + 8*64*64
	if len(enc) >= denseSize {
		t.Errorf("sparse ring took %d bytes, dense is %d", len(enc), denseSize)
	}
	// A matrix of full-entropy values (all mantissa bytes populated, so
	// varints run their full 10 bytes) costs more than the 8n² bytes of
	// its cells, and still ships the run-length body: there is no other.
	full := comm.NewMatrix(8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			full.Set(i, j, math.Sqrt(float64(i*8+j+2)))
		}
	}
	if enc, _, _ := codec.PutMatrixField(nil, full); enc[0] != codec.MatSparse || len(enc) <= 1+8+8*8*8 {
		t.Errorf("full-entropy matrix encoded as mode %d in %d bytes, want the sparse mode past the 8n² bytes of its cells", enc[0], len(enc))
	}
	// Both decode back bit-exactly through the field decoder.
	for _, m := range []*comm.Matrix{ring, full, nil} {
		enc, _, _ := codec.PutMatrixField(nil, m)
		got, fp, rest, err := getMatrix(enc, nil, codec.MaxMatrixOrder, nil)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode: %v (%d trailing)", err, len(rest))
		}
		if m == nil {
			if got != nil {
				t.Error("absent matrix decoded non-nil")
			}
			continue
		}
		if !bitsEqual(m, got) {
			t.Error("compact round trip not bit-exact")
		}
		if fp != comm.Fingerprint(m) {
			t.Error("decode folded a fingerprint other than comm.Fingerprint")
		}
	}
}

func TestSparseDecodeRejectsHostile(t *testing.T) {
	cases := map[string][]byte{
		"huge order":    codec.PutUvarint(nil, 1<<40),
		"absurd runs":   codec.PutUvarint(codec.PutUvarint(nil, 4), 1<<30),
		"zero run len":  codec.PutUvarint(codec.PutUvarint(codec.PutUvarint(codec.PutUvarint(codec.PutUvarint(nil, 4), 1), 0), 0), 7),
		"overrun cells": codec.PutUvarint(codec.PutUvarint(codec.PutUvarint(codec.PutUvarint(codec.PutUvarint(nil, 2), 1), 0), 40), 7),
		"truncated":     codec.PutUvarint(codec.PutUvarint(nil, 4), 1),
	}
	for name, enc := range cases {
		if _, _, _, err := getSparseBody(enc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAssignmentV4RoundTrip(t *testing.T) {
	cases := []*placement.Assignment{
		nil,
		{Strategy: "treematch", ComputePU: []int{0, 1, 19, 7}, ControlPU: []int{-1, -1, 3, -1}, CoreOf: []int{0, 0, 9, 3}},
		{Strategy: "none", Unbound: true},
		{Strategy: "x", Oversubscribed: true, ComputePU: []int{}, ControlPU: nil},
	}
	for i, a := range cases {
		got, rest, err := codec.GetAssignment(codec.PutAssignment(nil, a), nil)
		if err != nil || len(rest) != 0 {
			t.Fatalf("case %d: %v (%d trailing)", i, err, len(rest))
		}
		if (a == nil) != (got == nil) {
			t.Fatalf("case %d: presence lost", i)
		}
		if a == nil {
			continue
		}
		if got.Strategy != a.Strategy || got.Unbound != a.Unbound || got.Oversubscribed != a.Oversubscribed {
			t.Errorf("case %d: scalars mangled: %+v", i, got)
		}
		if !intSlicesEqual(got.ComputePU, a.ComputePU) || !intSlicesEqual(got.ControlPU, a.ControlPU) || !intSlicesEqual(got.CoreOf, a.CoreOf) {
			t.Errorf("case %d: slices mangled: %+v", i, got)
		}
	}
	// Small PU indices cost one byte each — what keeps a warm response
	// a few hundred bytes.
	big := &placement.Assignment{Strategy: "treematch", ComputePU: make([]int, 160), ControlPU: make([]int, 160), CoreOf: make([]int, 160)}
	for i := range big.ComputePU {
		big.ComputePU[i] = i % 20
		big.ControlPU[i] = -1
		big.CoreOf[i] = i % 10
	}
	// presence, strategy, flags, mode, then three 2-byte counts.
	if got, want := len(codec.PutAssignment(nil, big)), 1+2+len(big.Strategy)+2+3*(2+160); got != want {
		t.Errorf("160-task assignment = %d bytes, want %d", got, want)
	}
}

func intSlicesEqual(a, b []int) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFingerprintFlowOverRPC drives the full body → reference → miss →
// resend protocol against a live server.
func TestFingerprintFlowOverRPC(t *testing.T) {
	srv, _, addr := startPlacementServer(t)
	svc, err := DialPlacementService(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	req := &placement.PlaceRequest{Strategy: "treematch", Matrix: chainMatrix(4)}

	// First call ships the body and installs it in the seen table.
	if _, err := svc.Place(ctx, req); err != nil {
		t.Fatal(err)
	}
	if n := srv.matrices.len(); n != 1 {
		t.Fatalf("seen-matrix table holds %d entries after a body, want 1", n)
	}
	// Second call goes fingerprint-only: the request delta on the wire
	// must be far below the ~150-byte dense body.
	_, out0 := svc.WirePoolStats()
	resp, err := svc.Place(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	_, out1 := svc.WirePoolStats()
	if !resp.CacheHit {
		t.Error("warm call missed the mapping cache")
	}
	if delta := out1 - out0; delta > 100 {
		t.Errorf("fingerprint-only request cost %d bytes on the wire", delta)
	}
	if hits := srv.matrices.fpHits.Load(); hits == 0 {
		t.Error("server recorded no fingerprint hit")
	}

	// Simulate eviction/daemon restart: empty the seen table. The next
	// fingerprint-only call must miss, and the stub must transparently
	// resend the body.
	srv.matrices = newMatrixCache(defaultMatrixCacheEntries)
	resp, err = svc.Place(ctx, req)
	if err != nil {
		t.Fatalf("place after table flush: %v", err)
	}
	if resp.Assignment == nil {
		t.Error("retried place returned no assignment")
	}
	if misses := srv.matrices.fpMisses.Load(); misses == 0 {
		t.Error("flushed table recorded no fingerprint miss")
	}
	if n := srv.matrices.len(); n != 1 {
		t.Errorf("retry did not reinstall the body (table holds %d)", n)
	}
}

// TestPipelinedPooledPlacement hammers a pooled stub from many
// goroutines — the shape the -race run is for.
func TestPipelinedPooledPlacement(t *testing.T) {
	_, _, addr := startPlacementServer(t)
	svc, err := DialPlacementService(context.Background(), addr, WithPoolSize(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	m := chainMatrix(4)
	fp := comm.Fingerprint(m)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				req := &placement.PlaceRequest{Strategy: "treematch", Matrix: m, MatrixFP: fp}
				resp, err := svc.Place(ctx, req)
				if err != nil {
					errs <- err
					return
				}
				if resp.Assignment == nil || len(resp.Assignment.ComputePU) != 4 {
					errs <- context.DeadlineExceeded
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent place: %v", err)
	}
}

// TestMatrixCacheConcurrentLookupRemember: pooled connections resolve
// and re-announce one fingerprint at the same time (a body resend races
// a fingerprint-only request), so lookup must read the entry's matrix
// under the table lock that remember rewrites it under. Run with -race.
func TestMatrixCacheConcurrentLookupRemember(t *testing.T) {
	mc := newMatrixCache(4)
	m := comm.SparseFromMatrix(chainMatrix(4))
	fp := comm.Fingerprint(m)
	mc.remember(fp, m)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				mc.remember(fp, comm.SparseFromMatrix(chainMatrix(4)))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if got, ok := mc.lookup(fp); !ok || got == nil || got.Order() != 4 {
					t.Errorf("lookup = (%v, %v)", got, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestNetStatsOverRPC(t *testing.T) {
	_, _, addr := startPlacementServer(t)
	svc, err := DialPlacementService(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ctx := context.Background()
	req := &placement.PlaceRequest{Strategy: "treematch", Matrix: chainMatrix(4)}
	for i := 0; i < 3; i++ {
		if _, err := svc.Place(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	st, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Net.BytesIn == 0 || st.Net.BytesOut == 0 {
		t.Errorf("byte counters missing from stats: %+v", st.Net)
	}
	if st.Net.MatrixCacheEntries != 1 {
		t.Errorf("stats report %d seen matrices, want 1", st.Net.MatrixCacheEntries)
	}
	if st.Net.FingerprintHits == 0 {
		t.Errorf("stats report no fingerprint hits after warm calls: %+v", st.Net)
	}
}

// TestIdleTimeoutReapsSilentConn covers the -conn-idle satellite: a
// byte-silent connection with nothing in flight is closed after the
// timeout.
func TestIdleTimeoutReapsSilentConn(t *testing.T) {
	locs := locations(t, "data")
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, locs, WithIdleTimeout(60*time.Millisecond))
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
	if _, err := c.Size("data"); err != nil {
		t.Fatalf("fresh connection unusable: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	if _, err := c.Size("data"); err == nil {
		t.Error("idle connection survived 3x the timeout")
	}
}

// TestIdleTimeoutSparesInFlight: a connection whose Await is parked in
// the FIFO is waiting on the server, not idle — it must survive any
// number of timeout periods and complete when the grant arrives.
func TestIdleTimeoutSparesInFlight(t *testing.T) {
	locs := locations(t, "data")
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, locs, WithIdleTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	addr := lis.Addr().String()

	holder, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	h1, err := holder.Insert("data", orwl.Write)
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.Acquire(); err != nil {
		t.Fatal(err)
	}

	waiter, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	h2, err := waiter.Insert("data", orwl.Write)
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- h2.Acquire() }()

	// Hold the grant across several idle periods, keeping the holder's
	// own connection warm with pings (well inside the timeout, so a
	// loaded scheduler can't let the gap reach the reaper); the
	// waiter's connection is byte-silent the whole time but has the
	// Await in flight.
	for i := 0; i < 5; i++ {
		time.Sleep(50 * time.Millisecond)
		if _, err := holder.Size("data"); err != nil {
			t.Fatalf("holder ping: %v", err)
		}
	}
	if err := h1.Release(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatalf("parked Await failed after idle periods: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked Await never granted")
	}
	if err := h2.Release(); err != nil {
		t.Errorf("release on surviving connection: %v", err)
	}
}
