package orwl

import (
	"math/rand"
	"testing"
)

// The observed-traffic counters sit on the runtime's hottest path, the
// grant release. These benches pair the instrumented path with its
// uninstrumented twin, so the overhead can be checked to stay within
// noise.

func BenchmarkTrafficRecord(b *testing.B) {
	tr := newTraffic(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(1, 2, 4096)
	}
}

// BenchmarkTrafficRecordSparse is the sparse-mode twin: 1,024 tasks in
// disjoint 8-cliques, every pair already seen, so each record is the
// lock-free hit path.
func BenchmarkTrafficRecordSparse(b *testing.B) {
	const n, k = 1024, 8
	pair := func(x int) (from, to int) { // the x-th transfer of the pattern
		from = x / (k - 1) % n
		return from, from/k*k + (from%k+x%(k-1)+1)%k
	}
	tr := newTraffic(n)
	for x := range n * (k - 1) {
		from, to := pair(x)
		tr.Record(from, to, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for x := 0; x < b.N; x++ {
		from, to := pair(x)
		tr.Record(from, to, 4096)
	}
}

func benchRawAcquireRelease(b *testing.B, task int) {
	prog := MustProgram(2, "data")
	loc := prog.Location(Loc(0, "data"))
	loc.Scale(1 << 12)
	// Seed a last writer so the attributed variant pays the full
	// recording cost on every read release.
	w := loc.NewRequestFor(0, Write)
	w.Await()
	if err := w.Release(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := loc.NewRequestFor(task, Read)
		r.Await()
		if err := r.Release(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRawAcquireRelease is the uninstrumented acquire-release
// cycle (unattributed request, counters skipped).
func BenchmarkRawAcquireRelease(b *testing.B) { benchRawAcquireRelease(b, -1) }

// BenchmarkRawAcquireReleaseObserved is the same cycle with the
// observed-traffic recording active on every release.
func BenchmarkRawAcquireReleaseObserved(b *testing.B) { benchRawAcquireRelease(b, 1) }

// BenchmarkObservedWindow snapshots a 64-task window — the per-epoch
// cost the adaptive loop pays.
func BenchmarkObservedWindow(b *testing.B) {
	tr := newTraffic(64)
	for i := 0; i < 64; i++ {
		tr.Record(i, (i+1)%64, 1<<16)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.win.NextAffinity().Dense()
	}
}

// BenchmarkObservedWindowSparse is one sparse-mode epoch: 1,024 tasks
// in 8-cliques under a random relabelling (so rows are first seen out
// of column order) record a window, which is snapshotted and handed
// back.
func BenchmarkObservedWindowSparse(b *testing.B) {
	const n, k = 1024, 8
	tr := newTraffic(n)
	w := tr.NewWindow()
	perm := rand.New(rand.NewSource(1)).Perm(n)
	rec := func(x int) {
		for c := 0; c < n; c += k {
			for _, a := range perm[c : c+k] {
				for _, bb := range perm[c : c+k] {
					tr.Record(a, bb, 1+x%3)
				}
			}
		}
	}
	rec(0)
	b.ReportAllocs()
	b.ResetTimer()
	for x := 0; x < b.N; x++ {
		rec(x)
		w.Recycle(w.NextAffinity())
	}
}
