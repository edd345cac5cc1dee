package comm

import "testing"

func BenchmarkHeaviestPairsSparse(b *testing.B) {
	m := Ring(160, 1<<20, true) // 160 nonzero pairs out of 12720
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pairs := m.HeaviestPairs(0); len(pairs) != 160 {
			b.Fatal("wrong pair count")
		}
	}
}
