package treematch

import (
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// Grouping-engine benches at the sizes the mapping pipeline actually
// sees: the greedy engine on a machine-scale matrix, the exhaustive DP
// at its default size limit. Run with -benchmem — the engines draw all
// scratch from the pooled workspace, so steady-state allocations are
// just the returned group slices.

func BenchmarkGroupGreedy160(b *testing.B) {
	m := comm.Ring(160, 1<<20, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GroupProcesses(m, 8, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupGreedyClustered96(b *testing.B) {
	m := comm.Clustered(96, 12, 1000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GroupProcesses(m, 8, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupExhaustive12(b *testing.B) {
	m := comm.Random(12, 1000, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GroupProcesses(m, 3, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// Full Map on the big testbed — the same configuration as the root
// BenchmarkTreeMatchMap/160tasks-160cores target, benchable in-package.
func BenchmarkMapRing160(b *testing.B) {
	top := topology.SMP20E7()
	m := comm.Ring(160, 1<<20, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Map(top, m, Options{ControlThreads: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// Grouping ablations (DESIGN.md §5).

// Exhaustive vs greedy GroupProcesses: solution quality vs run time.
func BenchmarkAblationGroupingExhaustive(b *testing.B) {
	m := comm.Random(12, 1000, 7)
	var vol float64
	for i := 0; i < b.N; i++ {
		groups, err := GroupProcesses(m, 3, 12)
		if err != nil {
			b.Fatal(err)
		}
		vol = IntraGroupVolume(m, groups)
	}
	b.ReportMetric(vol, "intra-volume")
}

func BenchmarkAblationGroupingGreedy(b *testing.B) {
	m := comm.Random(12, 1000, 7)
	var vol float64
	for i := 0; i < b.N; i++ {
		groups, err := GroupProcesses(m, 3, 1)
		if err != nil {
			b.Fatal(err)
		}
		vol = IntraGroupVolume(m, groups)
	}
	b.ReportMetric(vol, "intra-volume")
}

func BenchmarkAblationGroupingGreedyLarge(b *testing.B) {
	m := comm.Random(96, 1000, 7)
	for i := 0; i < b.N; i++ {
		if _, err := GroupProcesses(m, 8, 12); err != nil {
			b.Fatal(err)
		}
	}
}
