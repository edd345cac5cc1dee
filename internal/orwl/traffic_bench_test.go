package orwl

import "testing"

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
