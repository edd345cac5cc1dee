package placement

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

func newTestFleet(t *testing.T) *MultiService {
	t.Helper()
	fleet := NewMultiService()
	if err := fleet.AddMachine("tinyht", topology.TinyHT()); err != nil {
		t.Fatal(err)
	}
	if err := fleet.AddMachine("tinyflat", topology.TinyFlat()); err != nil {
		t.Fatal(err)
	}
	return fleet
}

func TestMultiServiceRouting(t *testing.T) {
	fleet := newTestFleet(t)
	ctx := context.Background()

	if got := fleet.DefaultMachine(); got != "tinyht" {
		t.Errorf("default machine = %q, want the first registered", got)
	}
	if got := fleet.Machines(); len(got) != 2 || got[0] != "tinyht" || got[1] != "tinyflat" {
		t.Errorf("machines = %v", got)
	}

	// An unnamed request routes to the default machine.
	resp, err := fleet.Place(ctx, &PlaceRequest{Strategy: TreeMatch, Matrix: testMatrix(t, 4, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Machine != "tinyht" {
		t.Errorf("unnamed request served by %q, want default tinyht", resp.Machine)
	}

	// A named request routes to its machine.
	resp, err = fleet.Place(ctx, &PlaceRequest{Machine: "tinyflat", Strategy: TreeMatch, Matrix: testMatrix(t, 4, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Machine != "tinyflat" {
		t.Errorf("named request served by %q", resp.Machine)
	}

	// An unknown machine fails loudly.
	if _, err := fleet.Place(ctx, &PlaceRequest{Machine: "smp99", Strategy: TreeMatch, Entities: 2}); err == nil ||
		!strings.Contains(err.Error(), "unknown machine") {
		t.Errorf("unknown machine accepted (err = %v)", err)
	}

	// Per-machine engines are independent: the same matrix misses on
	// each machine once, so the fleet-wide counters show two misses.
	st, err := fleet.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Places != 2 || st.Cache.Misses != 2 {
		t.Errorf("aggregate stats = %+v, want 2 places / 2 misses", st)
	}
	if st.TopologyName != "TinyHT" {
		t.Errorf("stats report machine %q, want the default's topology", st.TopologyName)
	}
	if len(st.Machines) != 2 || st.Machines[0] != "tinyht" {
		t.Errorf("stats machines = %v", st.Machines)
	}

	per, err := fleet.MachineStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if per["tinyht"].Places != 1 || per["tinyflat"].Places != 1 {
		t.Errorf("per-machine stats = %+v", per)
	}
}

func TestMultiServiceConstruction(t *testing.T) {
	fleet := NewMultiService()
	if err := fleet.AddMachine("", topology.TinyHT()); err == nil {
		t.Error("unnamed machine accepted")
	}
	if err := fleet.AddEngine("x", nil); err == nil {
		t.Error("nil engine accepted")
	}
	if err := fleet.AddMachine("m", topology.TinyHT()); err != nil {
		t.Fatal(err)
	}
	if err := fleet.AddMachine("m", topology.TinyFlat()); err == nil {
		t.Error("duplicate machine name accepted")
	}
	if err := fleet.SetDefault("nope"); err == nil {
		t.Error("unknown default accepted")
	}
	if _, err := fleet.Place(context.Background(), nil); err == nil {
		t.Error("nil request accepted")
	}

	// An empty fleet reports its emptiness instead of panicking.
	empty := NewMultiService()
	if _, err := empty.Place(context.Background(), &PlaceRequest{Strategy: TreeMatch, Entities: 2}); err == nil {
		t.Error("empty fleet served a request")
	}
	if _, err := empty.Topology(context.Background()); err == nil {
		t.Error("empty fleet returned a topology")
	}
}

func TestMultiServiceSetDefault(t *testing.T) {
	fleet := newTestFleet(t)
	if err := fleet.SetDefault("tinyflat"); err != nil {
		t.Fatal(err)
	}
	if got := fleet.Machines(); got[0] != "tinyflat" {
		t.Errorf("machines after SetDefault = %v, want tinyflat first", got)
	}
	resp, err := fleet.Place(context.Background(), &PlaceRequest{Strategy: TreeMatch, Matrix: testMatrix(t, 4, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Machine != "tinyflat" {
		t.Errorf("unnamed request served by %q after SetDefault", resp.Machine)
	}
	top, err := fleet.Topology(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if top.Attrs.Name != "TinyFlat" {
		t.Errorf("fleet topology = %q, want the new default's", top.Attrs.Name)
	}
}

func TestMultiServicePlaceBatch(t *testing.T) {
	fleet := newTestFleet(t)
	ctx := context.Background()
	mat := testMatrix(t, 4, 100)

	reqs := []*PlaceRequest{
		{Machine: "tinyht", Strategy: TreeMatch, Matrix: mat},
		{Machine: "tinyflat", Strategy: TreeMatch, Matrix: mat},
		{Strategy: TreeMatch, Matrix: mat},                     // default machine
		{Machine: "missing", Strategy: TreeMatch, Matrix: mat}, // slot error
		{Machine: "tinyht", Strategy: "nope", Entities: 2},     // slot error
		nil, // slot error, must not void the batch
	}
	resps, err := fleet.PlaceBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(reqs) {
		t.Fatalf("batch answered %d slots for %d requests", len(resps), len(reqs))
	}
	for i, want := range []string{"tinyht", "tinyflat", "tinyht"} {
		if resps[i].Err != "" || resps[i].Assignment == nil || resps[i].Machine != want {
			t.Errorf("slot %d = %+v, want assignment from %q", i, resps[i], want)
		}
	}
	for i := 3; i < len(reqs); i++ {
		if resps[i].Err == "" || resps[i].Assignment != nil {
			t.Errorf("bad slot %d answered %+v, want a per-slot error", i, resps[i])
		}
	}

	// The default-machine slot and the named tinyht slot share a cache
	// key, so tinyht computed the matrix once.
	per, err := fleet.MachineStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st := per["tinyht"]; st.Cache.Misses != 1 {
		t.Errorf("tinyht misses = %d, want 1 (identical slots coalesce)", st.Cache.Misses)
	}
}

// TestMultiServicePlaceBatchConcurrent hammers PlaceBatch from many
// goroutines with mixed machines and a mix of recurring (cache-hit)
// and per-worker (cache-miss) matrices — the -race deployment shape of
// a fleet daemon under burst load.
func TestMultiServicePlaceBatchConcurrent(t *testing.T) {
	fleet := newTestFleet(t)
	ctx := context.Background()
	shared := testMatrix(t, 4, 100)

	const workers = 8
	const batches = 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				// One shared slot per machine (hits after the first
				// compute) plus one distinct-order slot (misses).
				reqs := []*PlaceRequest{
					{Machine: "tinyht", Strategy: TreeMatch, Matrix: shared},
					{Machine: "tinyflat", Strategy: TreeMatch, Matrix: shared},
					{Machine: "tinyht", Strategy: TreeMatch, Matrix: testMatrix(t, 3+(w+i)%4, 7)},
				}
				resps, err := fleet.PlaceBatch(ctx, reqs)
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
	// 2 shared keys + 4 distinct orders on tinyht; singleflight keeps
	// duplicate computes from concurrent first touches bounded.
	if st.Cache.Misses < 6 {
		t.Errorf("misses = %d, want >= 6 distinct keys", st.Cache.Misses)
	}
}

// TestMultiServiceConcurrentAddMachine hammers a growing fleet:
// machines are registered while placements, batch placements and both
// stats views run against it — the shape of a daemon whose operator
// adds machines at runtime. Run under -race this guards the router's
// locking.
func TestMultiServiceConcurrentAddMachine(t *testing.T) {
	fleet := NewMultiService()
	if err := fleet.AddMachine("seed", topology.TinyHT()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m := chainMatrixMulti(4)

	const adders = 4
	const machinesPerAdder = 8
	const readers = 4
	var wg sync.WaitGroup
	start := make(chan struct{})

	for a := 0; a < adders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			<-start
			for i := 0; i < machinesPerAdder; i++ {
				name := fmt.Sprintf("m-%d-%d", a, i)
				top := topology.TinyFlat()
				if err := fleet.AddMachine(name, top); err != nil {
					t.Errorf("AddMachine(%s): %v", name, err)
					return
				}
				// Immediately exercise the new machine.
				if _, err := fleet.Place(ctx, &PlaceRequest{Machine: name, Strategy: TreeMatch, Matrix: m}); err != nil {
					t.Errorf("Place on %s: %v", name, err)
					return
				}
			}
		}(a)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 40; i++ {
				if _, err := fleet.Place(ctx, &PlaceRequest{Strategy: TreeMatch, Matrix: m}); err != nil {
					t.Errorf("default Place: %v", err)
					return
				}
				if _, err := fleet.PlaceBatch(ctx, []*PlaceRequest{
					{Strategy: TreeMatch, Matrix: m},
					{Machine: "seed", Strategy: None},
				}); err != nil {
					t.Errorf("PlaceBatch: %v", err)
					return
				}
				if _, err := fleet.Stats(ctx); err != nil {
					t.Errorf("Stats: %v", err)
					return
				}
				ms, err := fleet.MachineStats(ctx)
				if err != nil {
					t.Errorf("MachineStats: %v", err)
					return
				}
				if _, ok := ms["seed"]; !ok {
					t.Error("MachineStats lost the seed machine")
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	want := 1 + adders*machinesPerAdder
	if got := len(fleet.Machines()); got != want {
		t.Errorf("fleet has %d machines, want %d", got, want)
	}
	if def := fleet.DefaultMachine(); def != "seed" {
		t.Errorf("default machine = %q, want seed", def)
	}
	ms, err := fleet.MachineStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != want {
		t.Errorf("MachineStats lists %d machines, want %d", len(ms), want)
	}
}

// chainMatrixMulti is a local pipeline matrix helper (the name avoids
// colliding with other test helpers in the package).
func chainMatrixMulti(n int) *comm.Matrix {
	m := comm.NewMatrix(n)
	for i := 0; i+1 < n; i++ {
		m.AddSym(i, i+1, float64(1+i)*100)
	}
	return m
}
