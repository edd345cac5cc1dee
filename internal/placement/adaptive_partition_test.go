package placement

import (
	"math"
	"sort"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// sparseCopy rebuilds an affinity as a Sparse with identical entries.
func sparseCopy(a comm.Affinity) *comm.Sparse {
	s := comm.NewSparse(a.Order())
	a.ForEach(func(i, j int, v float64) { s.Set(i, j, v) })
	return s
}

// TestDriftAffinityMatchesDense pins DriftAffinity to the dense Drift
// metric: same value on the same pattern whichever representation
// carries it, plus the degenerate cases.
func TestDriftAffinityMatchesDense(t *testing.T) {
	a := ringMatrix(16, 1<<20)
	b := strideClusters(16, 4, 1<<20)
	want := Drift(a, b)
	if got := DriftAffinity(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("DriftAffinity(dense) = %v, Drift = %v", got, want)
	}
	if got := DriftAffinity(sparseCopy(a), sparseCopy(b)); math.Abs(got-want) > 1e-12 {
		t.Fatalf("DriftAffinity(sparse) = %v, Drift = %v", got, want)
	}
	if got := DriftAffinity(sparseCopy(a), b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("DriftAffinity(mixed) = %v, Drift = %v", got, want)
	}
	if d := DriftAffinity(a, a.CloneAffinity()); d != 0 {
		t.Fatalf("identical affinities drift %v, want 0", d)
	}
	// Uniform scaling is not drift.
	scaled := sparseCopy(a)
	a.ForEach(func(i, j int, v float64) { scaled.Set(i, j, 3*v) })
	if d := DriftAffinity(a, scaled); d > 1e-12 {
		t.Fatalf("uniformly scaled affinity drift %v, want 0", d)
	}
	if d := DriftAffinity(a, comm.NewSparse(16)); d != 1 {
		t.Fatalf("non-zero vs all-zero drift %v, want 1", d)
	}
	if d := DriftAffinity(a, comm.NewSparse(8)); d != 1 {
		t.Fatalf("order mismatch drift %v, want 1", d)
	}
}

// TestPartitionDrift pins the per-partition semantics: a partition
// whose internal pattern only rescaled scores 0, a fully rewired one
// scores 1, and cross-partition traffic is attributed to neither.
func TestPartitionDrift(t *testing.T) {
	parts := &treematch.Partitioning{Parts: []treematch.Partition{
		{Tasks: []int{0, 1, 2, 3}},
		{Tasks: []int{4, 5, 6, 7}},
	}}
	base := comm.NewSparse(8)
	base.AddSym(0, 1, 100)
	base.AddSym(2, 3, 100)
	base.AddSym(4, 5, 100)
	base.AddSym(6, 7, 100)

	win := comm.NewSparse(8)
	win.AddSym(0, 1, 200) // partition 0: same pattern, scaled
	win.AddSym(2, 3, 200)
	win.AddSym(4, 6, 100) // partition 1: disjoint pairs
	win.AddSym(5, 7, 100)

	d := PartitionDrift(parts, base, win)
	if len(d) != 2 {
		t.Fatalf("got %d drifts, want 2", len(d))
	}
	if d[0] > 1e-12 {
		t.Fatalf("rescaled partition drift %v, want 0", d[0])
	}
	if math.Abs(d[1]-1) > 1e-12 {
		t.Fatalf("rewired partition drift %v, want 1", d[1])
	}

	// A huge new cross-partition flow changes neither partition's
	// internal pattern, so neither partition alarms.
	cross := sparseCopy(base)
	cross.AddSym(0, 7, 1e9)
	d = PartitionDrift(parts, base, cross)
	if d[0] > 1e-12 || d[1] > 1e-12 {
		t.Fatalf("cross-partition traffic attributed to a partition: %v", d)
	}

	// An idle partition going live is full drift for it alone.
	idle := comm.NewSparse(8)
	idle.AddSym(0, 1, 100)
	idle.AddSym(2, 3, 100)
	d = PartitionDrift(parts, idle, base)
	if d[0] > 1e-12 {
		t.Fatalf("stable partition drift %v, want 0", d[0])
	}
	if d[1] != 1 {
		t.Fatalf("newly-live partition drift %v, want 1", d[1])
	}
}

// TestAdaptivePartitionedRemapIsolated is the per-subtree acceptance
// scenario: a 2048-task partitioned mapping on the fleet machine whose
// traffic drifts inside exactly one partition. The reconciler must
// alarm on that partition alone, re-place only its subtree, and leave
// every other task's binding untouched.
func TestAdaptivePartitionedRemapIsolated(t *testing.T) {
	top := topology.Fleet1K()
	eng, err := NewEngine(top)
	if err != nil {
		t.Fatal(err)
	}
	base := comm.RingOfClusters(64, 32, 1<<20, 1<<12) // 2048 tasks, sparse

	asrc := &phaseSource{}
	rec, err := NewReconciler(eng, asrc, nil, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Prime(Fixed("declared", base)); err != nil {
		t.Fatal(err)
	}
	static := rec.Current()
	if static.Partitions == nil || len(static.Partitions.Parts) < 2 {
		t.Fatalf("prime did not produce a partitioned mapping: %+v", static.Partitions)
	}
	if aff := rec.BaselineAffinity(); aff == nil || aff.Order() != base.Order() {
		t.Fatalf("baseline affinity not recorded")
	}

	// Rewire the traffic inside one partition: drop its internal ring
	// edges and pair up tasks from opposite ends of the partition with
	// heavy volume, so the old per-core neighbourhoods are wrong for
	// the new pattern and a remap has real modeled gain.
	const target = 1
	ts := append([]int(nil), static.Partitions.Parts[target].Tasks...)
	sort.Ints(ts)
	inTarget := make(map[int]bool, len(ts))
	for _, task := range ts {
		inTarget[task] = true
	}
	win := comm.NewSparse(base.Order())
	base.ForEach(func(i, j int, v float64) {
		if !(inTarget[i] && inTarget[j]) {
			win.Set(i, j, v)
		}
	})
	for k := 0; k < len(ts)/2; k++ {
		win.AddSym(ts[k], ts[len(ts)-1-k], 1<<26)
	}

	asrc.affs = []comm.Affinity{base, win}

	// Epoch 1: traffic matches the baseline — no partition alarms.
	rep, err := rec.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Drift > 1e-9 || rep.Recomputed {
		t.Fatalf("drift-free epoch: drift %v recomputed %v", rep.Drift, rep.Recomputed)
	}
	if len(rep.PartitionDrifts) != len(static.Partitions.Parts) {
		t.Fatalf("got %d partition drifts, want %d", len(rep.PartitionDrifts), len(static.Partitions.Parts))
	}

	// Epoch 2: the rewired window. Only the target partition alarms.
	rep, err = rec.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	for pi, d := range rep.PartitionDrifts {
		if pi == target {
			if d <= 0.25 {
				t.Fatalf("target partition drift %v, want over threshold", d)
			}
		} else if d > 0.25 {
			t.Fatalf("partition %d drift %v without its traffic changing", pi, d)
		}
	}
	if !rep.Recomputed {
		t.Fatalf("drifted epoch did not recompute (drift %v)", rep.Drift)
	}
	if len(rep.RemappedPartitions) != 1 || rep.RemappedPartitions[0] != target {
		t.Fatalf("remapped partitions %v, want [%d]", rep.RemappedPartitions, target)
	}
	if !rep.Adopted {
		t.Fatalf("candidate rejected: gain %v cost %v", rep.GainSeconds, rep.CostSeconds)
	}

	// Isolation: every task outside the target partition keeps its PU.
	after := rep.Assignment
	moved := 0
	for task := range after.ComputePU {
		if after.ComputePU[task] != static.ComputePU[task] {
			if !inTarget[task] {
				t.Fatalf("task %d outside the drifted partition moved: PU %d -> %d",
					task, static.ComputePU[task], after.ComputePU[task])
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("remap of the drifted partition moved no tasks")
	}
}
