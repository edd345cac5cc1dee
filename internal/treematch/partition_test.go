package treematch

import (
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// TestMapAffinityDenseGolden pins the tentpole's decision-identity
// guarantee: at or below the partition threshold, MapAffinity takes the
// single-shot dense path and must reproduce Map bit for bit, whichever
// representation carries the affinity.
func TestMapAffinityDenseGolden(t *testing.T) {
	cases := []struct {
		name string
		top  *topology.Topology
		m    *comm.Matrix
		opt  Options
	}{
		{"ring-tinyht", topology.TinyHT(), comm.Ring(4, 100, true), Options{ControlThreads: true}},
		{"clustered-smp20e7", topology.SMP20E7(), comm.Clustered(160, 20, 1000, 10), Options{}},
		{"stencil-smp12e5", topology.SMP12E5(), comm.Stencil2D(8, 8, 50, 30), Options{ControlThreads: true}},
		{"oversub-tinyflat", topology.TinyFlat(), comm.Ring(20, 10, false), Options{}},
		{"random-fig2", topology.Fig2Machine(), comm.Random(32, 100, 3), Options{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Map(tc.top, tc.m, tc.opt)
			if err != nil {
				t.Fatalf("Map: %v", err)
			}
			for _, a := range []comm.Affinity{tc.m, comm.SparseFromMatrix(tc.m)} {
				got, err := MapAffinity(tc.top, a, tc.opt)
				if err != nil {
					t.Fatalf("MapAffinity: %v", err)
				}
				if got.Mode != want.Mode || got.Oversubscribed != want.Oversubscribed {
					t.Fatalf("mode/oversub diverged: got %v/%v want %v/%v",
						got.Mode, got.Oversubscribed, want.Mode, want.Oversubscribed)
				}
				for i := range want.ComputePU {
					if got.ComputePU[i] != want.ComputePU[i] ||
						got.ControlPU[i] != want.ControlPU[i] ||
						got.CoreOf[i] != want.CoreOf[i] {
						t.Fatalf("task %d diverged: got (%d,%d,%d) want (%d,%d,%d)", i,
							got.ComputePU[i], got.ControlPU[i], got.CoreOf[i],
							want.ComputePU[i], want.ControlPU[i], want.CoreOf[i])
					}
				}
				if got.Partitions != nil {
					t.Fatal("dense path reported a partitioning")
				}
			}
		})
	}
}

// TestPartitionGreedySparseMatchesGroupGreedy pins the sparse
// partitioner to the dense greedy grouper's decisions on matrices where
// both run (symmetric, non-negative, exact division).
func TestPartitionGreedySparseMatchesGroupGreedy(t *testing.T) {
	for _, tc := range []struct {
		name  string
		m     *comm.Matrix
		arity int
	}{
		{"ring24", comm.Ring(24, 100, true), 4},
		{"clustered32", comm.Clustered(32, 8, 1000, 1), 4},
		{"stencil36", comm.Stencil2D(6, 6, 70, 20), 6},
		{"sparse-islands", comm.RingOfClusters(6, 5, 500, 5).Dense(), 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.m.Order()
			want := refGreedyDense(tc.m, tc.arity, &refWorkspace{}, false)
			normalizeGroups(want)

			pt := new(grouper)
			pt.use(symOf(tc.m))
			tasks := make([]int, n)
			for i := range tasks {
				tasks[i] = i
			}
			got := pt.split(tasks, n/tc.arity, false)
			if len(got) != len(want) {
				t.Fatalf("%d groups, want %d", len(got), len(want))
			}
			for g := range want {
				if len(got[g]) != len(want[g]) {
					t.Fatalf("group %d: %v, want %v", g, got[g], want[g])
				}
				for k := range want[g] {
					if got[g][k] != want[g][k] {
						t.Fatalf("group %d: %v, want %v", g, got[g], want[g])
					}
				}
			}
		})
	}
}

// TestMapAffinityPartitioned checks the sparse partitioned path on a
// ring-of-clusters big enough to cross the threshold: the mapping must
// be structurally valid, every partition's tasks must land inside its
// own subtree, the partitions must tile the task set, and the weak-cut
// recursion must keep almost all intra-cluster traffic NUMA-local.
func TestMapAffinityPartitioned(t *testing.T) {
	top := topology.Fleet1K()
	k, size := 128, 32
	s := comm.RingOfClusters(k, size, 1000, 10)
	n := k * size
	mp, err := MapAffinity(top, s, Options{})
	if err != nil {
		t.Fatalf("MapAffinity: %v", err)
	}
	if mp.Partitions == nil {
		t.Fatal("no partitioning recorded above the threshold")
	}
	if len(mp.ComputePU) != n {
		t.Fatalf("%d bindings, want %d", len(mp.ComputePU), n)
	}
	nPU := top.NumPUs()
	for i, pu := range mp.ComputePU {
		if pu < 0 || pu >= nPU {
			t.Fatalf("task %d bound to PU %d out of range", i, pu)
		}
	}

	// Partition containment: each partition's tasks bound under its
	// subtree, and the parts must tile the task set exactly.
	seen := make([]bool, n)
	for _, part := range mp.Partitions.Parts {
		objs := top.ObjectsAtDepth(part.Depth)
		if part.Object < 0 || part.Object >= len(objs) {
			t.Fatalf("partition object %d out of range at depth %d", part.Object, part.Depth)
		}
		obj := objs[part.Object]
		pus := obj.PUs()
		lo := pus[0].LogicalIndex
		hi := lo + len(pus)
		for _, g := range part.Tasks {
			if seen[g] {
				t.Fatalf("task %d in two partitions", g)
			}
			seen[g] = true
			if mp.ComputePU[g] < lo || mp.ComputePU[g] >= hi {
				t.Fatalf("task %d of partition %d bound to PU %d outside [%d,%d)",
					g, part.Object, mp.ComputePU[g], lo, hi)
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("task %d not in any partition", i)
		}
	}

	// Weak cuts: the recursion should keep clusters together, so the
	// overwhelming share of communication volume must stay on cores of
	// the same NUMA node. (Random placement would be ~1.5% local.)
	coresPerNUMA := top.NumCores() / top.NumObjects(topology.NUMANode)
	var intra, total float64
	for i := 0; i < n; i++ {
		s.ForEachRow(i, func(j int, v float64) {
			if j <= i {
				return
			}
			vol := v + s.At(j, i)
			total += vol
			if mp.CoreOf[i]/coresPerNUMA == mp.CoreOf[j]/coresPerNUMA {
				intra += vol
			}
		})
	}
	if total <= 0 {
		t.Fatal("no communication volume")
	}
	if frac := intra / total; frac < 0.75 {
		t.Fatalf("only %.1f%% of volume is NUMA-local", 100*frac)
	}
}

// TestRemapPartitionIsolated drives the partial-recompute primitive:
// remapping one partition against a changed affinity must not move any
// task of the other partitions.
func TestRemapPartitionIsolated(t *testing.T) {
	top := topology.Fleet1K()
	s := comm.RingOfClusters(64, 32, 1000, 10)
	mp, err := MapAffinity(top, s, Options{})
	if err != nil {
		t.Fatalf("MapAffinity: %v", err)
	}
	if mp.Partitions == nil || len(mp.Partitions.Parts) < 2 {
		t.Fatalf("want >= 2 partitions, got %+v", mp.Partitions)
	}
	target := mp.Partitions.Parts[1]
	before := make([]int, len(mp.ComputePU))
	copy(before, mp.ComputePU)

	// Perturb the traffic inside the target partition: reverse its
	// heaviest links so the subtree mapping changes.
	changed := s.Clone()
	for i := 0; i+1 < len(target.Tasks); i += 2 {
		changed.AddSym(target.Tasks[i], target.Tasks[i+1], 5000)
	}
	if err := RemapPartition(mp, changed, target, Options{}); err != nil {
		t.Fatalf("RemapPartition: %v", err)
	}
	inTarget := make(map[int]bool, len(target.Tasks))
	for _, g := range target.Tasks {
		inTarget[g] = true
	}
	for i := range before {
		if !inTarget[i] && mp.ComputePU[i] != before[i] {
			t.Fatalf("task %d outside the remapped partition moved %d -> %d",
				i, before[i], mp.ComputePU[i])
		}
	}
}
