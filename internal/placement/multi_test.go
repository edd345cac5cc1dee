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

	per, err := machineStats(ctx, fleet)
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
	if err := fleet.AddMachine("x", nil); err == nil {
		t.Error("nil topology accepted")
	}
	if err := fleet.AddMachine("m", topology.TinyHT()); err != nil {
		t.Fatal(err)
	}
	if err := fleet.AddMachine("m", topology.TinyFlat()); err == nil {
		t.Error("duplicate machine name accepted")
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

// TestMultiServiceConcurrentAddMachine hammers a growing fleet:
// machines are registered while placements on the default and on a
// named machine and both stats views run against it — the shape of a daemon whose operator
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
				if _, err := fleet.Place(ctx, &PlaceRequest{Machine: "seed", Strategy: None, Entities: 2}); err != nil {
					t.Errorf("seed Place: %v", err)
					return
				}
				if _, err := fleet.Stats(ctx); err != nil {
					t.Errorf("Stats: %v", err)
					return
				}
				ms, err := machineStats(ctx, fleet)
				if err != nil {
					t.Errorf("machineStats: %v", err)
					return
				}
				if _, ok := ms["seed"]; !ok {
					t.Error("machineStats lost the seed machine")
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
	ms, err := machineStats(ctx, fleet)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != want {
		t.Errorf("machineStats lists %d machines, want %d", len(ms), want)
	}
}

// machineStats is the per-machine view behind the fleet's aggregate
// Stats, keyed by fleet name.
func machineStats(ctx context.Context, fleet *MultiService) (map[string]ServiceStats, error) {
	out := map[string]ServiceStats{}
	for _, name := range fleet.Machines() {
		svc, err := fleet.MachineService(name)
		if err != nil {
			return nil, err
		}
		if out[name], err = svc.Stats(ctx); err != nil {
			return nil, err
		}
	}
	return out, nil
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
