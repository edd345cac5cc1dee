package orwlnet

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// One opPlaceCompute round trip over loopback TCP, engine cache warm,
// so the measurement is the wire format, the pooled payload buffers
// and the transport — the per-RPC overhead a placement daemon pays on
// top of the strategy itself. Run with -benchmem: the codec pools keep
// the request/response payload bodies out of the per-call allocation
// count.
func BenchmarkPlaceComputeRoundTrip(b *testing.B) {
	remote := startBenchService(b, topology.TinyFlat())
	req := &placement.PlaceRequest{
		Strategy: placement.TreeMatch,
		Matrix:   comm.Ring(8, 1<<16, true),
		Options:  placement.Options{ControlThreads: true},
	}
	ctx := context.Background()
	if _, err := remote.Place(ctx, req); err != nil { // warm the mapping cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := remote.Place(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Assignment == nil {
			b.Fatal("no assignment")
		}
	}
}

// startBenchService serves one machine's placement engine over
// loopback TCP for the length of the benchmark and returns a connected
// stub.
func startBenchService(b testing.TB, top *topology.Topology) *RemoteService {
	b.Helper()
	eng, err := placement.NewEngine(top)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := placement.NewLocalService(eng)
	if err != nil {
		b.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(lis, nil, WithPlacement(svc))
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	b.Cleanup(func() { srv.Close() })
	c, err := Dial(lis.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c.placementService()
}

// coldClustered is a never-seen-before workload matrix: n tasks
// permuted into clusters of eight with about 1 MiB on every
// intra-cluster pair and 1 KiB on a ring linking consecutive clusters
// (about 6% nonzero at 160 tasks). It returns the matrix and one
// intra-cluster pair, whose volume a caller bumps to make the next
// request new to every cache.
func coldClustered(rng *rand.Rand, n int) (m *comm.Matrix, a, b int) {
	m = comm.NewMatrix(n)
	members := rng.Perm(n)
	for c := 0; c < n; c += 8 {
		group := members[c : c+8]
		for i, x := range group {
			for _, y := range group[i+1:] {
				m.AddSym(x, y, float64(1<<20+rng.Intn(1<<16)))
			}
		}
		m.AddSym(group[7], members[(c+8)%n], 1<<10)
	}
	return m, members[0], members[1]
}

// BenchmarkPlaceColdRoundTrip is the cold placement path end to end:
// every request carries a clustered matrix the daemon has never seen,
// without a MatrixFP hint, so the stub encodes and fingerprints its
// body, the daemon decodes it, misses both caches, runs TreeMatch and
// computes the quality diagnostics.
func BenchmarkPlaceColdRoundTrip(b *testing.B) {
	top, err := topology.ByName("smp20e7")
	if err != nil {
		b.Fatal(err)
	}
	remote := startBenchService(b, top)
	ctx := context.Background()
	for _, n := range []int{64, 96, 160} {
		// One matrix across every b.N round, so no round repeats another's.
		m, x, y := coldClustered(rand.New(rand.NewSource(int64(n))), n)
		req := &placement.PlaceRequest{Strategy: placement.TreeMatch, Matrix: m, Entities: n}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.AddSym(x, y, 1)
				resp, err := remote.Place(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				if resp.CacheHit || resp.Assignment == nil {
					b.Fatalf("cold request answered hit=%v assignment=%v", resp.CacheHit, resp.Assignment)
				}
			}
		})
	}
}

// TestPlaceColdRoundTrip160AllocatesNoMatrix is the cold path's
// allocation tripwire: a never-seen 160-task clustered placement
// through a loopback RemoteService — encode, decode, TreeMatch, quality
// diagnostics, response — must allocate < 64 KiB per call process-wide.
// A dense 160² matrix alone is 205 KB.
func TestPlaceColdRoundTrip160AllocatesNoMatrix(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector drops pooled buffers at random")
	}
	top, err := topology.ByName("smp20e7")
	if err != nil {
		t.Fatal(err)
	}
	remote := startBenchService(t, top)
	m, x, y := coldClustered(rand.New(rand.NewSource(160)), 160)
	req := &placement.PlaceRequest{Strategy: placement.TreeMatch, Matrix: m, Entities: 160}
	place := func() {
		m.AddSym(x, y, 1)
		resp, err := remote.Place(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit {
			t.Fatal("a never-seen matrix was a cache hit")
		}
	}
	place() // sizes the pooled buffers and workspaces
	place()
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		place()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / calls; got >= 64<<10 {
		t.Fatalf("one cold 160-task placement allocated %d bytes, want < 64 KiB", got)
	} else {
		t.Logf("one cold 160-task placement allocated %d KiB", got>>10)
	}
}

// TestPlaceWarmRoundTrip160AllocatesNoAssignment is the warm path's
// allocation tripwire: a repeated 160-task ring placement through a
// loopback RemoteService — a fingerprint-only request, a mapping-cache
// hit, a response equal to the last — must allocate < 2 KiB per call
// process-wide. The assignment alone is 3.8 KB each time it is copied
// or decoded.
func TestPlaceWarmRoundTrip160AllocatesNoAssignment(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector drops pooled buffers at random")
	}
	top, err := topology.ByName("smp20e7")
	if err != nil {
		t.Fatal(err)
	}
	remote := startBenchService(t, top)
	m := comm.Ring(160, 1<<16, true)
	req := &placement.PlaceRequest{Strategy: placement.TreeMatch, Matrix: m, MatrixFP: comm.Fingerprint(m), Entities: 160}
	place := func() {
		resp, err := remote.Place(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit {
			t.Fatal("a repeated ring was not a cache hit")
		}
	}
	if _, err := remote.Place(context.Background(), req); err != nil { // computes the mapping
		t.Fatal(err)
	}
	place() // sizes the pooled buffers
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		place()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / calls; got >= 2<<10 {
		t.Fatalf("one warm 160-task placement allocated %d bytes, want < 2 KiB", got)
	} else {
		t.Logf("one warm 160-task placement allocated %d bytes", got)
	}
}

// fleetBenchSize is the request count of the benchmark below: one
// request per paper testbed plus a few repeats — the shape of a
// cross-machine comparison.
const fleetBenchSize = 8

// startBenchFleet serves a two-machine fleet over loopback TCP and
// returns a connected stub plus the warm request slice the benchmark
// places. Caches are warmed so the benchmark measures wire and
// dispatch overhead, not TreeMatch.
func startBenchFleet(b *testing.B) (*RemoteService, []*placement.PlaceRequest, func()) {
	b.Helper()
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine("tinyht", topology.TinyHT()); err != nil {
		b.Fatal(err)
	}
	if err := fleet.AddMachine("tinyflat", topology.TinyFlat()); err != nil {
		b.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(lis, nil, WithPlacement(fleet))
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	c, err := Dial(lis.Addr().String())
	if err != nil {
		srv.Close()
		b.Fatal(err)
	}
	remote := c.placementService()
	machines := []string{"tinyht", "tinyflat"}
	reqs := make([]*placement.PlaceRequest, fleetBenchSize)
	for i := range reqs {
		reqs[i] = &placement.PlaceRequest{
			Machine:  machines[i%len(machines)],
			Strategy: placement.TreeMatch,
			Matrix:   comm.Ring(8, 1<<16, true),
		}
	}
	for _, req := range reqs { // warm both caches
		if _, err := remote.Place(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	return remote, reqs, func() {
		c.Close()
		srv.Close()
	}
}

// BenchmarkPlaceSequentialRoundTrip places fleetBenchSize warm
// requests across a two-machine fleet, one opPlaceCompute round trip
// each.
func BenchmarkPlaceSequentialRoundTrip(b *testing.B) {
	remote, reqs, stop := startBenchFleet(b)
	defer stop()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range reqs {
			resp, err := remote.Place(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Assignment == nil {
				b.Fatal("no assignment")
			}
		}
	}
}

// TestWirePlaceRefusesInvalidRequests: over the wire, a NaN, ±Inf or
// negative volume and an entity count other than the matrix order are
// refused like in process, and a typed nil matrix crosses as no matrix.
func TestWirePlaceRefusesInvalidRequests(t *testing.T) {
	remote := startBenchService(t, topology.Fig2Machine())
	ctx := context.Background()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5} {
		m := comm.Clustered(32, 8, 1000, 10)
		m.Set(3, 7, v)
		for try := 0; try < 2; try++ {
			if _, err := remote.Place(ctx, &placement.PlaceRequest{Strategy: placement.TreeMatch, Matrix: m}); err == nil {
				t.Fatalf("%v at (3,7), try %d: placed", v, try)
			}
		}
	}
	m := comm.Clustered(16, 4, 1000, 10)
	if _, err := remote.Place(ctx, &placement.PlaceRequest{Strategy: "round-robin-pu", Matrix: m, Entities: 8}); err == nil {
		t.Fatal("8 entities for an order-16 matrix placed")
	}
	for _, a := range []comm.Affinity{(*comm.Matrix)(nil), (*comm.Sparse)(nil)} {
		if _, err := remote.Place(ctx, &placement.PlaceRequest{Strategy: placement.TreeMatch, Matrix: a, Entities: 8}); err == nil {
			t.Errorf("treematch placed without a matrix (%T)", a)
		}
		resp, err := remote.Place(ctx, &placement.PlaceRequest{Strategy: "round-robin-pu", Matrix: a, Entities: 8})
		if err != nil || resp.Assignment.Entities() != 8 {
			t.Fatalf("round-robin-pu with %T(nil): %v", a, err)
		}
	}
}
