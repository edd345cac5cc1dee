package orwl

// Tests for handing window snapshots back: a recycled snapshot is
// refilled in place with exactly what a fresh one would hold, and one
// never handed back stays frozen.

import (
	"fmt"
	"testing"

	"orwlplace/internal/comm"
)

// sameCells reports the first cell where a and b differ, "" if none.
func sameCells(a, b comm.Affinity) string {
	if a.Order() != b.Order() || a.NNZ() != b.NNZ() {
		return fmt.Sprintf("order %d/%d, nnz %d/%d", a.Order(), b.Order(), a.NNZ(), b.NNZ())
	}
	diff := ""
	a.ForEach(func(i, j int, v float64) {
		if diff == "" && b.At(i, j) != v {
			diff = fmt.Sprintf("(%d,%d) = %g, want %g", i, j, v, b.At(i, j))
		}
	})
	return diff
}

// recordRing records one epoch of a ring over n tasks, with a chord
// from every step-th task: the pattern changes with step.
func recordRing(tr *Traffic, n, step, vol int) {
	for i := 0; i < n; i++ {
		tr.Record(i, (i+1)%n, vol)
		if step > 0 && i%step == 0 {
			tr.Record(i, (i+n/2)%n, vol)
		}
	}
}

// TestWindowRecycleRefillsInPlace: two windows over one recorder see
// the same epochs; the one whose snapshots are handed back gets each
// refilled in place, and its cells always equal the other's fresh
// snapshot — across row shapes that grow and shrink, and across the
// switch between the sparse and the dense form.
func TestWindowRecycleRefillsInPlace(t *testing.T) {
	for _, n := range []int{16, comm.DenseOrderThreshold + 88} {
		tr := newTraffic(n)
		recycled, fresh := tr.NewWindow(), tr.NewWindow()
		var prev comm.Affinity
		for e, step := range []int{0, 0, 3, 1, 5, 0, 1, 1} {
			recordRing(tr, n, step, 64+e)
			if step == 1 && n == 16 {
				for i := 0; i < n; i++ { // every cell: the epoch is dense
					for j := 0; j < n; j++ {
						tr.Record(i, j, 1)
					}
				}
			}
			got, want := recycled.NextAffinity(), fresh.NextAffinity()
			if diff := sameCells(got, want); diff != "" {
				t.Fatalf("order %d, epoch %d: recycled snapshot differs from a fresh one: %s", n, e, diff)
			}
			if _, dense := got.(*comm.Matrix); dense != (got.NNZ() > n*n/8) {
				t.Fatalf("order %d, epoch %d: %d nonzeros held as %T", n, e, got.NNZ(), got)
			}
			if prev != nil && sameKind(prev, got) && prev != got {
				t.Fatalf("order %d, epoch %d: a recycled %T was not refilled in place", n, e, got)
			}
			recycled.Recycle(got)
			prev = got
		}
	}
}

func sameKind(a, b comm.Affinity) bool {
	_, da := a.(*comm.Matrix)
	_, db := b.(*comm.Matrix)
	return da == db
}

// TestWindowSnapshotFrozenUnlessRecycled: a snapshot never handed back
// is the caller's for good — later epochs, recycled or not, never
// write into it.
func TestWindowSnapshotFrozenUnlessRecycled(t *testing.T) {
	for _, n := range []int{16, comm.DenseOrderThreshold + 88} {
		tr := newTraffic(n)
		w := tr.NewWindow()
		recordRing(tr, n, 3, 100)
		kept := w.NextAffinity()
		want := kept.CloneAffinity()
		for e := 0; e < 4; e++ {
			recordRing(tr, n, 3, 7+e)
			w.Recycle(w.NextAffinity())
		}
		if diff := sameCells(kept, want); diff != "" {
			t.Fatalf("order %d: a snapshot never handed back changed: %s", n, diff)
		}
	}
}

// TestWindowRecycledAllocatesNothing: at a fixed pattern, a window
// whose snapshots are handed back allocates nothing per epoch.
func TestWindowRecycledAllocatesNothing(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, n := range []int{64, comm.DenseOrderThreshold + 88} {
		tr := newTraffic(n)
		w := tr.NewWindow()
		epoch := func() {
			recordRing(tr, n, 4, 256)
			w.Recycle(w.NextAffinity())
		}
		epoch()
		if allocs := testing.AllocsPerRun(10, epoch); allocs != 0 {
			t.Fatalf("order %d: recycled epoch allocated %v times, want 0", n, allocs)
		}
	}
}
