package placement

import (
	"sync"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// The cache pays off when a dynamic program re-presents a matrix the
// engine has mapped before: a cached ComputeHinted is a fingerprint
// plus a map lookup, against a full TreeMatch run cold. Compare:
//
//	go test ./internal/placement -bench 'TreeMatch(Cold|Cached)' -benchmem

func benchMatrix() *comm.Matrix {
	return comm.Stencil2D(8, 8, 1<<14, 1<<14)
}

func BenchmarkTreeMatchCold(b *testing.B) {
	top := topology.SMP12E5()
	m := benchMatrix()
	eng, err := NewEngine(top, WithCacheEntries(0)) // every run computes
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ComputeHinted(TreeMatch, m, 0, 0, Options{ControlThreads: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeMatchCached(b *testing.B) {
	top := topology.SMP12E5()
	m := benchMatrix()
	eng, err := NewEngine(top)
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := eng.ComputeHinted(TreeMatch, m, 0, 0, Options{ControlThreads: true}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.ComputeHinted(TreeMatch, m, 0, 0, Options{ControlThreads: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// A burst of concurrent ComputeHinted calls per distinct key: with
// singleflight the strategy runs once per key per burst regardless of
// the burst width, so per-call cost approaches a cache hit.
func BenchmarkTreeMatchConcurrentBurst(b *testing.B) {
	top := topology.SMP12E5()
	m := benchMatrix()
	eng, err := NewEngine(top)
	if err != nil {
		b.Fatal(err)
	}
	const width = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for g := 0; g < width; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := eng.ComputeHinted(TreeMatch, m, 0, 0, Options{ControlThreads: true}); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}
