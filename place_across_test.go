package orwlplace_test

// PlaceAcross tests: the cross-machine comparison is one Place per
// machine, whether the fleet is in process or behind a daemon.

import (
	"context"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"orwlplace"
	"orwlplace/internal/orwlnet"
)

// chain is an n-stage pipeline exchanging v between neighbours.
func chain(n int, v float64) *orwlplace.Matrix {
	m := orwlplace.NewMatrix(n)
	for i := 1; i < n; i++ {
		m.AddSym(i-1, i, v)
	}
	return m
}

func newFleet(t *testing.T) *orwlplace.Fleet {
	t.Helper()
	fleet, err := orwlplace.NewFleet([]string{"tinyht", "tinyflat"})
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

// TestPlaceAcrossFleet: every machine answers in its own slot, the
// empty name routes to the default machine, and a failing machine or
// strategy fails only its own slots. Slots that share a cache key on
// one machine compute it once.
func TestPlaceAcrossFleet(t *testing.T) {
	fleet := newFleet(t)
	ctx := context.Background()
	mat := chain(4, 100)

	machines := []string{"tinyht", "tinyflat", "", "missing"}
	resps, err := orwlplace.PlaceAcross(ctx, fleet, orwlplace.TreeMatch, mat, 0, machines)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(machines) {
		t.Fatalf("PlaceAcross answered %d slots for %d machines", len(resps), len(machines))
	}
	for i, want := range []string{"tinyht", "tinyflat", "tinyht"} {
		if resps[i].Err != "" || resps[i].Assignment == nil || resps[i].Machine != want {
			t.Errorf("slot %d = %+v, want an assignment from %q", i, resps[i], want)
		}
	}
	if r := resps[3]; r.Machine != "missing" || r.Assignment != nil || !strings.Contains(r.Err, "unknown machine") {
		t.Errorf("missing machine = %+v, want its own unknown-machine error", r)
	}
	svc, err := fleet.MachineService("tinyht")
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Misses != 1 {
		t.Errorf("tinyht misses = %d, want 1 (the default and the named slot share a key)", st.Cache.Misses)
	}

	// A strategy no engine knows fails every slot, not the call.
	resps, err = orwlplace.PlaceAcross(ctx, fleet, "nope", mat, 0, machines[:2])
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Err == "" || r.Assignment != nil {
			t.Errorf("slot %d under an unknown strategy = %+v, want a slot error", i, r)
		}
	}

	// A context that ends fails the whole call instead of every slot.
	done, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := orwlplace.PlaceAcross(done, fleet, orwlplace.TreeMatch, mat, 0, machines); err != context.Canceled {
		t.Errorf("cancelled comparison err = %v, want context.Canceled", err)
	}
}

// TestPlaceAcrossFleetConcurrent runs comparisons from many goroutines
// with a recurring (cache-hit) matrix on both machines and a per-worker
// (cache-miss) one on tinyht — the -race shape of a fleet under burst
// load. Every Place is counted once.
func TestPlaceAcrossFleetConcurrent(t *testing.T) {
	fleet := newFleet(t)
	ctx := context.Background()
	shared := chain(4, 100)

	const workers = 8
	const rounds = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				both, err := orwlplace.PlaceAcross(ctx, fleet, orwlplace.TreeMatch, shared, 0, []string{"tinyht", "tinyflat"})
				if err != nil {
					t.Error(err)
					return
				}
				one, err := orwlplace.PlaceAcross(ctx, fleet, orwlplace.TreeMatch, chain(3+(w+i)%4, 7), 0, []string{"tinyht"})
				if err != nil {
					t.Error(err)
					return
				}
				for s, r := range append(both, one...) {
					if r.Err != "" || r.Assignment == nil {
						t.Errorf("worker %d round %d slot %d: %+v", w, i, s, r)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	st, err := fleet.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(workers * rounds * 3)
	if st.Places != total {
		t.Errorf("places = %d, want %d", st.Places, total)
	}
	if st.Cache.Hits+st.Cache.Misses != total {
		t.Errorf("hits(%d)+misses(%d) != %d", st.Cache.Hits, st.Cache.Misses, total)
	}
	// 2 shared keys + 4 distinct orders on tinyht.
	if st.Cache.Misses < 6 {
		t.Errorf("misses = %d, want >= 6 distinct keys", st.Cache.Misses)
	}
}

// TestPlaceAcrossRemoteMatchesFleet: the same comparison through the
// remote stub and on an in-process fleet places every machine on the
// same PUs, and on both an unknown machine and a machine name too long
// for the wire fail only their own slot.
func TestPlaceAcrossRemoteMatchesFleet(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := orwlnet.NewServer(lis, nil, orwlnet.WithPlacement(newFleet(t)))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	remote, err := orwlplace.DialPlacement(ctx, lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	mat := chain(6, 100)
	long := strings.Repeat("m", 70000)
	machines := []string{"tinyht", "smp99", "tinyflat", long}
	answers := map[string][]*orwlplace.PlaceResponse{}
	for name, svc := range map[string]orwlplace.Service{"fleet": newFleet(t), "remote": remote} {
		resps, err := orwlplace.PlaceAcross(ctx, svc, orwlplace.TreeMatch, mat, 0, machines)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(resps) != len(machines) {
			t.Fatalf("%s answered %d slots for %d machines", name, len(resps), len(machines))
		}
		for _, i := range []int{1, 3} {
			if r := resps[i]; r.Err == "" || r.Assignment != nil {
				t.Errorf("%s slot %d = %+v, want a slot error", name, i, r)
			}
		}
		for _, i := range []int{0, 2} {
			if r := resps[i]; r.Err != "" || r.Assignment == nil || r.Machine != machines[i] {
				t.Fatalf("%s slot %d = %+v, want an assignment from %q", name, i, r, machines[i])
			}
		}
		answers[name] = resps
	}
	for _, i := range []int{0, 2} {
		if got, want := answers["remote"][i].Assignment.ComputePU, answers["fleet"][i].Assignment.ComputePU; !slices.Equal(got, want) {
			t.Errorf("%s: remote placed %v, the in-process fleet %v", machines[i], got, want)
		}
	}
}
