package orwlnet

import (
	"context"
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
	top := topology.TinyFlat()
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
	defer srv.Close()

	c, err := Dial(lis.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	remote := c.PlacementService()

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
