package ctrlplane

// Tests for the sparse-first control plane surfaces added for the 10k
// task scale-up: snapshots with sparse baselines and persisted
// partitions, the configurable lease-task bound, and the collector's
// O(nnz) merge path.

import (
	"reflect"
	"sort"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// sparseFixture builds a snapshot whose machine lives above the dense
// threshold: a sparse baseline and a partitioned assignment — the state
// a large-scale reconciler would persist.
func sparseFixture(n int) *Snapshot {
	base := comm.NewSparse(n)
	base.AddSym(0, 1, 1<<20)
	base.AddSym(n-2, n-1, 42.5)
	base.Set(5, n/2, 7)
	compute := make([]int, n)
	for i := range compute {
		compute[i] = i % 64
	}
	tasksA := make([]int, n/2)
	tasksB := make([]int, n-n/2)
	for i := range tasksA {
		tasksA[i] = i
	}
	for i := range tasksB {
		tasksB[i] = n/2 + i
	}
	return &Snapshot{
		NextLeaseID: 3,
		Leases: []LeaseRecord{
			{Lease: Lease{ID: 2, Machine: "big", Peer: "p", TaskBase: 0, TaskCount: n}, LastSeq: 4},
		},
		Machines: []MachineRecord{{
			Name:  "big",
			Order: n,
			Epoch: 9,
			Latest: &Remap{
				Machine: "big",
				Epoch:   9,
				Drift:   0.5,
				Assignment: &placement.Assignment{
					Strategy:  "treematch",
					ComputePU: compute,
					Partitions: &treematch.Partitioning{Parts: []treematch.Partition{
						{Depth: 1, Object: 0, Tasks: tasksA},
						{Depth: 1, Object: 1, Tasks: tasksB},
					}},
				},
			},
			Base: base,
		}},
	}
}

// sameAffinity compares two affinities entry-wise regardless of
// representation.
func sameAffinity(t *testing.T, got, want comm.Affinity) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("affinity = %v, want %v", got, want)
		}
		return
	}
	if got.Order() != want.Order() || got.NNZ() != want.NNZ() {
		t.Fatalf("affinity order/nnz = %d/%d, want %d/%d", got.Order(), got.NNZ(), want.Order(), want.NNZ())
	}
	want.ForEach(func(i, j int, v float64) {
		if g := got.At(i, j); g != v {
			t.Fatalf("affinity(%d,%d) = %g, want %g", i, j, g, v)
		}
	})
}

// TestSnapshotSparseRoundTrip: a snapshot carries a sparse
// baseline and the partition structure through encode/decode without
// ever materializing order² state on disk.
func TestSnapshotSparseRoundTrip(t *testing.T) {
	n := comm.DenseOrderThreshold + 88
	want := sparseFixture(n)
	data, err := EncodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	// The file must be O(nnz): a dense order-600 baseline alone would be
	// 600²·8 ≈ 2.9 MB.
	if len(data) > 64<<10 {
		t.Fatalf("sparse snapshot is %d bytes — looks densified", len(data))
	}
	got, err := DecodeSnapshotLimit(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameAffinity(t, got.Machines[0].Base, want.Machines[0].Base)
	if _, ok := got.Machines[0].Base.(*comm.Sparse); !ok {
		t.Fatalf("decoded baseline is %T, want *comm.Sparse above the dense threshold", got.Machines[0].Base)
	}
	gp := got.Machines[0].Latest.Assignment.Partitions
	wp := want.Machines[0].Latest.Assignment.Partitions
	if !reflect.DeepEqual(gp, wp) {
		t.Fatalf("partitions changed in the round trip:\n got %+v\nwant %+v", gp, wp)
	}
	if !reflect.DeepEqual(got.Leases, want.Leases) {
		t.Fatal("leases changed in the round trip")
	}
}

// TestSnapshotDecodeLimit: the decoder enforces the lease-task bound it
// is given — the default rejects a fleet beyond DefaultMaxLeaseTasks,
// and a daemon running with a raised -max-lease-tasks decodes its own
// larger snapshots with the same raised bound.
func TestSnapshotDecodeLimit(t *testing.T) {
	big := DefaultMaxLeaseTasks + 1200
	s := sparseFixture(big)
	data, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshotLimit(data, 0); err == nil {
		t.Fatalf("order-%d snapshot decoded under the default %d-task bound", big, DefaultMaxLeaseTasks)
	}
	got, err := DecodeSnapshotLimit(data, big)
	if err != nil {
		t.Fatalf("decode with matching bound: %v", err)
	}
	if got.Machines[0].Order != big {
		t.Fatalf("order = %d, want %d", got.Machines[0].Order, big)
	}
	if _, err := DecodeSnapshotLimit(data, big-1); err == nil {
		t.Fatal("snapshot decoded under a bound smaller than its lease range")
	}
}

// TestCollectorRaisedLeaseBound: the registration bound is
// configurable; raised, the collector accepts larger fleets and merges
// sparse deltas at lease offsets without densifying.
func TestCollectorRaisedLeaseBound(t *testing.T) {
	c := NewCollector(-1)
	if got := c.MaxLeaseTasks(); got != DefaultMaxLeaseTasks {
		t.Fatalf("default bound = %d, want %d", got, DefaultMaxLeaseTasks)
	}
	if _, err := c.Register("m", "p", 0, DefaultMaxLeaseTasks+1); err == nil {
		t.Fatal("lease beyond the default bound registered")
	}
	c.SetMaxLeaseTasks(8192)
	if got := c.MaxLeaseTasks(); got != 8192 {
		t.Fatalf("raised bound = %d, want 8192", got)
	}
	a, err := c.Register("m", "p", 0, 4096)
	if err != nil {
		t.Fatalf("lease under the raised bound: %v", err)
	}
	b, err := c.Register("m", "q", 4096, 100)
	if err != nil {
		t.Fatal(err)
	}

	// Sparse deltas merge at the lease offsets, O(nnz) end to end.
	d := comm.NewSparse(4096)
	d.Set(1, 2, 10)
	d.Set(4000, 4095, 5)
	if err := c.ReportAffinity(a.ID, 1, d); err != nil {
		t.Fatal(err)
	}
	if err := c.ReportAffinity(b.ID, 1, delta(100, 0, 3, 20)); err != nil {
		t.Fatal(err)
	}
	w := c.WindowAffinity("m")
	if w == nil || w.Order() != 4196 {
		t.Fatalf("window order = %v, want 4196", w)
	}
	if _, ok := w.(*comm.Sparse); !ok {
		t.Fatalf("fleet window is %T above the dense threshold, want *comm.Sparse", w)
	}
	if got := w.At(1, 2); got != 10 {
		t.Errorf("fleet(1,2) = %g, want 10", got)
	}
	if got := w.At(4000, 4095); got != 5 {
		t.Errorf("fleet(4000,4095) = %g, want 5", got)
	}
	if got := w.At(4096, 4099); got != 20 {
		t.Errorf("fleet(4096,4099) = %g, want 20 (dense delta at the lease offset)", got)
	}
	if got := w.NNZ(); got != 3 {
		t.Errorf("fleet nnz = %d, want 3", got)
	}
	// The window drains like the dense path.
	if w := c.WindowAffinity("m"); w == nil || w.Total() != 0 || w.Order() != 4196 {
		t.Fatalf("drained window = %v, want empty order-4196", w)
	}

	// Resetting to 0 restores the default bound.
	c.SetMaxLeaseTasks(0)
	if got := c.MaxLeaseTasks(); got != DefaultMaxLeaseTasks {
		t.Fatalf("reset bound = %d, want %d", got, DefaultMaxLeaseTasks)
	}
}

// TestRestoreRefreshesPartitionBaseline: the reconciler caches its
// drift baseline in partition form across steady epochs, so a restore
// that rewinds the baseline must drop that form with it. The controller
// adopts a shift, is rewound to the pre-shift snapshot while the cache
// holds the post-shift baseline, and the next steady epoch on the
// pre-shift pattern must measure drift 0.
func TestRestoreRefreshesPartitionBaseline(t *testing.T) {
	const machine, tasks = "fleet1k", 2048
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine(machine, topology.Fleet1K()); err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(fleet, Config{StaleAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := ctrl.Register(machine, "p", 0, tasks)
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	epoch := func(step string, w comm.Affinity) *placement.EpochReport {
		t.Helper()
		seq++
		if err := ctrl.ReportAffinity(lease.ID, seq, w); err != nil {
			t.Fatal(err)
		}
		rep, err := ctrl.Epoch(machine)
		if err != nil || rep == nil {
			t.Fatalf("%s: epoch = (%v, %v)", step, rep, err)
		}
		return rep
	}
	steady := func(step string, w comm.Affinity) {
		t.Helper()
		if rep := epoch(step, w); rep.Drift > 1e-9 || rep.Recomputed || len(rep.PartitionDrifts) == 0 {
			t.Fatalf("%s: steady epoch drifts %v (recomputed %v, %d partitions)", step, rep.Drift, rep.Recomputed, len(rep.PartitionDrifts))
		}
	}

	before := comm.RingOfClusters(64, 32, 1<<20, 1<<12)
	if rep := epoch("priming", before); !rep.Adopted {
		t.Fatal("priming epoch not adopted")
	}
	steady("primed", before)
	snap, snapSeq := ctrl.Snapshot(), seq

	// Rewire one partition end to end and let the controller adopt it.
	ts := append([]int(nil), ctrl.Latest(machine).Assignment.Partitions.Parts[1].Tasks...)
	sort.Ints(ts)
	in := make(map[int]bool, len(ts))
	for _, task := range ts {
		in[task] = true
	}
	after := comm.NewSparse(tasks)
	before.ForEach(func(i, j int, v float64) {
		if !(in[i] && in[j]) {
			after.Set(i, j, v)
		}
	})
	for k := 0; k < len(ts)/2; k++ {
		after.AddSym(ts[k], ts[len(ts)-1-k], 1<<26)
	}
	if rep := epoch("shift", after); !rep.Adopted {
		t.Fatalf("shift not adopted: drift %v gain %v cost %v", rep.Drift, rep.GainSeconds, rep.CostSeconds)
	}
	steady("after adoption", after) // the cached form is now after's

	if err := ctrl.Restore(snap); err != nil {
		t.Fatal(err)
	}
	seq = snapSeq // the restored lease resumes at its snapshotted sequence
	steady("after restore", before)
}
