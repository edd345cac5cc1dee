package orwlnet

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"orwlplace/internal/comm"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/perfsim"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// frozen is an assignment handed out somewhere, next to a deep copy
// taken when it was handed out.
type frozen struct {
	where string
	a, at *placement.Assignment
}

// deepCopy copies every slice of a, keeping nil and empty apart.
func deepCopy(a *placement.Assignment) *placement.Assignment {
	c := *a
	c.ComputePU, c.ControlPU, c.CoreOf = slices.Clone(a.ComputePU), slices.Clone(a.ControlPU), slices.Clone(a.CoreOf)
	if a.Partitions != nil {
		c.Partitions = &treematch.Partitioning{Parts: slices.Clone(a.Partitions.Parts)}
		for i := range c.Partitions.Parts {
			c.Partitions.Parts[i].Tasks = slices.Clone(a.Partitions.Parts[i].Tasks)
		}
	}
	return &c
}

// immutableWindow is a fleet window over fleetTasks tasks: a ring, with
// one partition of the machine's current mapping (if it has any)
// rewired into heavy random pairs — a drift only a partition-scoped
// remap answers.
func immutableWindow(rng *rand.Rand, cur *placement.Assignment) *comm.Matrix {
	m := fleetRing(fleetTasks, float64(1<<20+rng.Intn(1<<10)))
	if cur == nil || cur.Partitions == nil || rng.Intn(4) == 0 {
		return m
	}
	part := cur.Partitions.Parts[rng.Intn(len(cur.Partitions.Parts))].Tasks
	in := make(map[int]bool, len(part))
	for _, t := range part {
		in[t] = true
	}
	for i := 0; i+1 < fleetTasks; i++ {
		if in[i] && in[i+1] {
			m.Set(i, i+1, 0)
			m.Set(i+1, i, 0)
		}
	}
	perm := rng.Perm(len(part))
	for k := 0; k+1 < len(perm); k += 2 {
		m.AddSym(part[perm[k]], part[perm[k+1]], 1<<26)
	}
	return m
}

// TestAssignmentsStayImmutable drives a seeded mix of every path that
// hands out an assignment — remote Place (cache hits, singleflight,
// memoised decodes), in-process Place, fleet epochs with
// partition-scoped remaps, the watcher's delta folds, Reconciler
// Current, and Snapshot/Restore into a second controller that keeps
// reconciling — and checks that every assignment still equals the deep
// copy taken when it was handed out. Assignments are shared, never
// copied, from the engine cache to the client: one edit anywhere would
// show here.
func TestAssignmentsStayImmutable(t *testing.T) {
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine("fig2", topology.Fig2Machine()); err != nil {
		t.Fatal(err)
	}
	if err := fleet.AddMachine("tinyflat", topology.TinyFlat()); err != nil {
		t.Fatal(err)
	}
	// Above sixteen tasks the fleet mapping is partitioned (one
	// partition per two-socket group), so drift re-places one group.
	threads := make([]perfsim.Thread, fleetTasks)
	for i := range threads {
		threads[i] = perfsim.Thread{ComputeCycles: 1e5, WorkingSet: 1 << 20, MemoryTraffic: 1 << 14}
	}
	cfg := ctrlplane.Config{
		Adaptive: placement.AdaptiveConfig{
			Horizon:  500,
			Workload: &perfsim.Workload{Name: "immutable", Threads: threads, Iterations: 1},
			Options:  placement.Options{PartitionThreshold: 16},
		},
		StaleAfter: -1,
	}
	ctrl, err := ctrlplane.NewController(fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := serveCtrlFleet(t, fleet, ctrl)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rs, err := DialPlacementService(ctx, addr, WithPoolSize(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	lease, err := rs.RegisterLease(ctx, "fig2", "p", 0, fleetTasks)
	if err != nil {
		t.Fatal(err)
	}
	watch, err := rs.WatchRemaps(ctx, "fig2")
	if err != nil {
		t.Fatal(err)
	}

	var seen []frozen
	keep := func(where string, a *placement.Assignment) {
		if a != nil {
			seen = append(seen, frozen{where, a, deepCopy(a)})
		}
	}
	matrices := []*comm.Matrix{comm.Ring(16, 1<<16, true), comm.Clustered(16, 4, 1000, 10), comm.Ring(32, 1<<10, true)}
	request := func(rng *rand.Rand) *placement.PlaceRequest {
		m := matrices[rng.Intn(len(matrices))]
		return &placement.PlaceRequest{
			Machine:  []string{"fig2", "tinyflat"}[rng.Intn(2)],
			Strategy: []string{placement.TreeMatch, placement.TreeMatch, "compact", "round-robin-pu"}[rng.Intn(4)],
			Matrix:   m,
			Options:  placement.Options{ControlThreads: rng.Intn(2) == 0},
		}
	}
	var seq uint64
	var adopted, partitionRemaps, deltas int
	epoch := func(rng *rand.Rand, c *ctrlplane.Controller, report func(w *comm.Matrix) error) {
		seq++
		var cur *placement.Assignment
		if latest := c.Latest("fig2"); latest != nil {
			cur = latest.Assignment
		}
		if err := report(immutableWindow(rng, cur)); err != nil {
			t.Fatal(err)
		}
		rep, err := c.Epoch("fig2")
		if err != nil {
			t.Fatal(err)
		}
		if rep == nil {
			return
		}
		keep("epoch report", rep.Assignment)
		if rep.Adopted {
			adopted++
			if len(rep.RemappedPartitions) > 0 {
				partitionRemaps++
			}
		}
	}

	rng := rand.New(rand.NewSource(29))
	for step := 0; step < 80; step++ {
		switch rng.Intn(5) {
		case 0, 1:
			resp, err := rs.Place(ctx, request(rng))
			if err != nil {
				t.Fatal(err)
			}
			keep("remote Place", resp.Assignment)
		case 2:
			reqs := []*placement.PlaceRequest{request(rng), request(rng), request(rng)}
			for _, req := range reqs {
				r, err := rs.Place(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				keep("remote Place", r.Assignment)
			}
			local, err := fleet.Place(ctx, reqs[0])
			if err != nil {
				t.Fatal(err)
			}
			keep("in-process Place", local.Assignment)
		default:
			before := adopted
			epoch(rng, ctrl, func(w *comm.Matrix) error { return rs.ReportObserved(ctx, lease, seq, w) })
			if adopted > before {
				ev := recvRemap(t, ctx, watch)
				if ev.Delta {
					deltas++
				}
				keep("watched remap", ev.Assignment)
			}
		}
	}

	// A snapshot restored into a second controller, which keeps
	// reconciling from the restored (shared) assignment.
	snap := ctrl.Snapshot()
	for _, mr := range snap.Machines {
		if mr.Latest != nil {
			keep("snapshot", mr.Latest.Assignment)
		}
	}
	ctrl2, err := ctrlplane.NewController(fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	keep("restored latest", ctrl2.Latest("fig2").Assignment)
	for step := 0; step < 20; step++ {
		epoch(rng, ctrl2, func(w *comm.Matrix) error { return ctrl2.ReportAffinity(lease, seq, w) })
	}
	keep("second controller latest", ctrl2.Latest("fig2").Assignment)

	if adopted < 3 || partitionRemaps == 0 || deltas == 0 {
		t.Fatalf("the run covered %d adoptions, %d partition remaps, %d delta folds: want ≥ 3, ≥ 1, ≥ 1", adopted, partitionRemaps, deltas)
	}
	for i, f := range seen {
		if !reflect.DeepEqual(f.a, f.at) {
			t.Errorf("assignment %d (%s) changed after it was handed out", i, f.where)
		}
	}
	t.Logf("%d assignments checked: %d adoptions, %d partition remaps, %d delta folds", len(seen), adopted, partitionRemaps, deltas)
}
