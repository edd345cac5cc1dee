package orwlnet

import (
	"context"
	"fmt"
	"math/rand"
	"net"
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
func startBenchService(b *testing.B, top *topology.Topology) *RemoteService {
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
	return c.PlacementService()
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

// batchBenchSize is the fan-out of the batch-vs-sequential pair below:
// one request per paper testbed plus a few repeats — the shape of a
// cross-machine comparison.
const batchBenchSize = 8

// startBenchFleet serves a two-machine fleet over loopback TCP and
// returns a connected stub plus the warm request slice both benchmarks
// place. Caches are warmed so the two benchmarks measure wire and
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
	remote := c.PlacementService()
	machines := []string{"tinyht", "tinyflat"}
	reqs := make([]*placement.PlaceRequest, batchBenchSize)
	for i := range reqs {
		reqs[i] = &placement.PlaceRequest{
			Machine:  machines[i%len(machines)],
			Strategy: placement.TreeMatch,
			Matrix:   comm.Ring(8, 1<<16, true),
		}
	}
	if _, err := remote.PlaceBatch(context.Background(), reqs); err != nil { // warm both caches
		b.Fatal(err)
	}
	return remote, reqs, func() {
		c.Close()
		srv.Close()
	}
}

// BenchmarkPlaceBatchRoundTrip places batchBenchSize warm requests
// across a two-machine fleet in ONE opPlaceBatch RPC per iteration.
// Compare ns/op against BenchmarkPlaceSequentialRoundTrip, which does
// the same work as N single RPCs: the difference is the per-request
// wire overhead batching amortises.
func BenchmarkPlaceBatchRoundTrip(b *testing.B) {
	remote, reqs, stop := startBenchFleet(b)
	defer stop()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resps, err := remote.PlaceBatch(ctx, reqs)
		if err != nil {
			b.Fatal(err)
		}
		if len(resps) != len(reqs) || resps[0].Assignment == nil {
			b.Fatal("bad batch answer")
		}
	}
}

// BenchmarkPlaceSequentialRoundTrip is the N-RPC baseline of the pair
// above: identical requests, one opPlaceCompute round trip each.
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
