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

// TestRemoteFleetEndToEnd compares a workload across the daemon's
// machines the one way there is: a Place per machine. Both machines
// answer, and a machine the daemon does not serve fails its own call
// without touching the calls around it.
func TestRemoteFleetEndToEnd(t *testing.T) {
	_, addr := startFleetServer(t)
	ctx := context.Background()
	remote, err := DialPlacementService(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	stats, err := remote.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Machines) != 2 || stats.Machines[0] != "tinyht" {
		t.Fatalf("fleet stats machines = %v", stats.Machines)
	}

	mat := chainMatrix(4)
	for _, machine := range []string{"tinyht", "smp99", "tinyflat"} {
		resp, err := remote.Place(ctx, &placement.PlaceRequest{Machine: machine, Strategy: placement.TreeMatch, Matrix: mat})
		if machine == "smp99" {
			if err == nil || !strings.Contains(err.Error(), "unknown machine") {
				t.Errorf("smp99 = %+v, %v, want an unknown-machine error", resp, err)
			}
			continue
		}
		if err != nil || resp.Err != "" || resp.Assignment == nil || resp.Machine != machine {
			t.Errorf("%s = %+v, %v, want an assignment from %q", machine, resp, err, machine)
		}
	}

	// The comparison computed tinyflat's mapping; the next call hits.
	resp, err := remote.Place(ctx, &placement.PlaceRequest{Machine: "tinyflat", Strategy: placement.TreeMatch, Matrix: mat})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Machine != "tinyflat" || !resp.CacheHit {
		t.Errorf("routed place = %+v, want a tinyflat cache hit from the comparison's compute", resp)
	}
}

// TestRemoteFleetConcurrentBatches drives batches of mixed-machine,
// mixed hit/miss Place calls over one connection from many goroutines
// — the -race shape of the full stack (client mux, server dispatch,
// engine singleflight).
func TestRemoteFleetConcurrentBatches(t *testing.T) {
	fleet, addr := startFleetServer(t)
	ctx := context.Background()
	remote, err := DialPlacementService(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
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
				for s, req := range []*placement.PlaceRequest{
					{Machine: "tinyht", Strategy: placement.TreeMatch, Matrix: shared},
					{Machine: "tinyflat", Strategy: placement.TreeMatch, Matrix: shared},
					{Machine: "tinyht", Strategy: placement.TreeMatch, Matrix: chainMatrix(3 + (w+i)%4)},
				} {
					resp, err := remote.Place(ctx, req)
					if err != nil {
						errs <- err
						return
					}
					if resp.Assignment == nil {
						t.Errorf("worker %d batch %d call %d: %+v", w, i, s, resp)
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
