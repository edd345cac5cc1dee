package orwlnet

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"

	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// startFleetServer runs a pure placement daemon serving two named
// machines — what `orwlnetd -place -machine tinyht -machine tinyflat`
// exports.
func startFleetServer(t *testing.T) (*placement.MultiService, string) {
	t.Helper()
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine("tinyht", topology.TinyHT()); err != nil {
		t.Fatal(err)
	}
	if err := fleet.AddMachine("tinyflat", topology.TinyFlat()); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, nil, WithPlacement(fleet))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return fleet, lis.Addr().String()
}

func TestRemoteFleetEndToEnd(t *testing.T) {
	_, addr := startFleetServer(t)
	ctx := context.Background()
	c, err := DialContext(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	remote := c.PlacementService()

	stats, err := remote.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Machines) != 2 || stats.Machines[0] != "tinyht" {
		t.Fatalf("fleet stats machines = %v", stats.Machines)
	}

	// One RPC, one slot per machine, plus a bad slot that must fail
	// positionally without voiding its siblings.
	mat := chainMatrix(4)
	resps, err := remote.PlaceBatch(ctx, []*placement.PlaceRequest{
		{Machine: "tinyht", Strategy: placement.TreeMatch, Matrix: mat},
		{Machine: "tinyflat", Strategy: placement.TreeMatch, Matrix: mat},
		{Machine: "smp99", Strategy: placement.TreeMatch, Matrix: mat},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 3 {
		t.Fatalf("batch answered %d slots", len(resps))
	}
	for i, want := range []string{"tinyht", "tinyflat"} {
		if resps[i].Err != "" || resps[i].Assignment == nil || resps[i].Machine != want {
			t.Errorf("slot %d = %+v, want assignment from %q", i, resps[i], want)
		}
	}
	if resps[2].Err == "" || !strings.Contains(resps[2].Err, "unknown machine") {
		t.Errorf("bad slot = %+v, want an unknown-machine error", resps[2])
	}

	// Single Place with a machine selector routes too.
	resp, err := remote.Place(ctx, &placement.PlaceRequest{Machine: "tinyflat", Strategy: placement.TreeMatch, Matrix: mat})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Machine != "tinyflat" || !resp.CacheHit {
		t.Errorf("routed place = %+v, want a tinyflat cache hit from the batch's compute", resp)
	}
}

// TestRemoteFleetConcurrentBatches drives mixed-machine, mixed
// hit/miss batches over one connection from many goroutines — the
// -race shape of the full stack (client mux, server fan-out, engine
// singleflight).
func TestRemoteFleetConcurrentBatches(t *testing.T) {
	fleet, addr := startFleetServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	remote := c.PlacementService()
	ctx := context.Background()
	shared := chainMatrix(4)

	const workers = 6
	const batches = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				resps, err := remote.PlaceBatch(ctx, []*placement.PlaceRequest{
					{Machine: "tinyht", Strategy: placement.TreeMatch, Matrix: shared},
					{Machine: "tinyflat", Strategy: placement.TreeMatch, Matrix: shared},
					{Machine: "tinyht", Strategy: placement.TreeMatch, Matrix: chainMatrix(3 + (w+i)%4)},
				})
				if err != nil {
					errs <- err
					return
				}
				for s, resp := range resps {
					if resp.Err != "" || resp.Assignment == nil {
						t.Errorf("worker %d batch %d slot %d: %+v", w, i, s, resp)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st, err := fleet.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(workers * batches * 3)
	if st.Places != total {
		t.Errorf("places = %d, want %d", st.Places, total)
	}
	if st.Cache.Hits+st.Cache.Misses != total {
		t.Errorf("hits(%d)+misses(%d) != %d", st.Cache.Hits, st.Cache.Misses, total)
	}
}
