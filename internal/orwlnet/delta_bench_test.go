package orwlnet

import (
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/orwl"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// BenchmarkRemapDeltaPush measures the delta push end to end: a
// single-partition remap of the 10k-task / 1024-core fleet mapping (the
// sparse partitioned recipe), pushed as a delta and re-bound O(changed)
// on the client.
//
// Each iteration runs the per-subscriber hot path — encode the delta
// frame, decode it, fold it onto the cached assignment, re-bind only
// the moved tasks. The reported extra metrics are the two ratios
// against the complete frame:
//
//	full_bytes / delta_bytes  -> push_bytes_ratio
//	order / moved_tasks       -> rebind_ratio
func BenchmarkRemapDeltaPush(b *testing.B) {
	top := topology.Fleet1K()
	s := comm.RingOfClusters(250, 40, 1<<20, 1<<12) // 10000 tasks
	mp, err := treematch.MapAffinity(top, s, treematch.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if mp.Partitions == nil || len(mp.Partitions.Parts) < 2 {
		b.Fatal("10k mapping did not take the partitioned path")
	}
	prev := &placement.Assignment{
		Strategy:   placement.TreeMatch,
		ComputePU:  mp.ComputePU,
		ControlPU:  mp.ControlPU,
		Mode:       mp.Mode,
		CoreOf:     mp.CoreOf,
		Partitions: mp.Partitions,
	}
	order := len(prev.ComputePU)

	// A single-partition drift event: the drifted subtree's tasks swap
	// places with its sibling's (each Fleet1K partition is ~10 tasks on
	// one core, so a remap of one subtree migrates its tasks — the
	// moved set is the two partitions, ~0.2% of the fleet).
	partIdx := len(mp.Partitions.Parts) / 2
	pa, pb := mp.Partitions.Parts[partIdx], mp.Partitions.Parts[partIdx+1]
	next := prev.Clone()
	swapTo := func(tasks []int, src int) {
		for _, task := range tasks {
			next.ComputePU[task] = prev.ComputePU[src]
			next.ControlPU[task] = prev.ControlPU[src]
			next.CoreOf[task] = prev.CoreOf[src]
		}
	}
	swapTo(pa.Tasks, pb.Tasks[0])
	swapTo(pb.Tasks, pa.Tasks[0])
	moved := make([]int, 0, len(pa.Tasks)+len(pb.Tasks))
	for task := range next.ComputePU {
		if next.ComputePU[task] != prev.ComputePU[task] ||
			next.ControlPU[task] != prev.ControlPU[task] ||
			next.CoreOf[task] != prev.CoreOf[task] {
			moved = append(moved, task)
		}
	}
	if len(moved) == 0 {
		b.Fatal("partition swap moved nothing")
	}
	ev := &ctrlplane.Remap{
		Machine:            "fleet1k",
		Epoch:              2,
		Drift:              0.25,
		Assignment:         next,
		MovedTasks:         moved,
		RemappedPartitions: []int{partIdx, partIdx + 1},
	}

	full := encodeRemapFrame(nil, ev, false)
	delta := encodeRemapFrame(nil, ev, true)
	if f, err := decodeRemapFrame(delta); err != nil || !f.Delta {
		b.Fatalf("a subscriber on epoch 1 got no delta: (%+v, %v)", f, err)
	}

	// The client side: a 10k-task program whose cached assignment the
	// delta lands on.
	prog := orwl.MustProgram(order)
	if err := placement.Bind(prog, prev); err != nil {
		b.Fatal(err)
	}
	cache := prev.Clone()

	buf := make([]byte, 0, len(full))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = encodeRemapFrame(buf[:0], ev, true)
		f, err := decodeRemapFrame(buf)
		if err != nil {
			b.Fatal(err)
		}
		applied, err := f.apply(cache, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := placement.BindTasks(prog, applied.Assignment, applied.MovedTasks); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(full)), "full_bytes")
	b.ReportMetric(float64(len(delta)), "delta_bytes")
	b.ReportMetric(float64(len(full))/float64(len(delta)), "push_bytes_ratio")
	b.ReportMetric(float64(order), "tasks")
	b.ReportMetric(float64(len(moved)), "moved_tasks")
	b.ReportMetric(float64(order)/float64(len(moved)), "rebind_ratio")
}
