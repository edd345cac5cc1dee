package orwl

// Tests for the recorder's sparse mode: above comm.DenseOrderThreshold
// tasks the counters live in per-row tables instead of a flat n²
// array, and every snapshot surface must behave exactly like the dense
// mode's.

import (
	"sync"
	"testing"

	"orwlplace/internal/comm"
)

func TestTrafficSparseMode(t *testing.T) {
	n := comm.DenseOrderThreshold + 1
	tr := newTraffic(n)
	if !tr.Sparse() {
		t.Fatalf("%d-task recorder is dense, want sparse above the %d threshold", n, comm.DenseOrderThreshold)
	}
	if dense := newTraffic(comm.DenseOrderThreshold); dense.Sparse() {
		t.Fatalf("%d-task recorder is sparse, want dense at the threshold", comm.DenseOrderThreshold)
	}

	tr.Record(0, 1, 100)
	tr.Record(0, 1, 50)
	tr.Record(n-1, 0, 7)
	tr.Record(3, 3, 9)  // self transfer: dropped
	tr.Record(-1, 2, 9) // unattributed: dropped
	tr.Record(0, n, 9)  // out of range: dropped

	a := tr.Affinity()
	if a.Order() != n {
		t.Fatalf("affinity order = %d, want %d", a.Order(), n)
	}
	if _, ok := a.(*comm.Sparse); !ok {
		t.Fatalf("cumulative affinity is %T, want *comm.Sparse above the threshold", a)
	}
	if got := a.At(0, 1); got != 150 {
		t.Errorf("affinity(0,1) = %g, want 150", got)
	}
	if got := a.At(n-1, 0); got != 7 {
		t.Errorf("affinity(%d,0) = %g, want 7", n-1, got)
	}
	if got := a.NNZ(); got != 2 {
		t.Errorf("affinity nnz = %d, want 2", got)
	}
	if m := tr.Matrix(); m.At(0, 1) != 150 || m.At(n-1, 0) != 7 {
		t.Errorf("dense snapshot disagrees with the sparse counters")
	}
	if bytes, ops := tr.Totals(); bytes != 157 || ops != 3 {
		t.Errorf("totals = (%d, %d), want (157, 3)", bytes, ops)
	}
	if got := tr.Ops(0, 1); got != 2 {
		t.Errorf("ops(0,1) = %d, want 2", got)
	}

	// Windows carve disjoint epochs off the sparse counters too.
	w := tr.NewWindow()
	if first := w.NextAffinity(); first.At(0, 1) != 150 || first.NNZ() != 2 {
		t.Fatalf("first epoch = %v nnz %d, want the full history", first.At(0, 1), first.NNZ())
	}
	tr.Record(0, 1, 25)
	second := w.NextAffinity()
	if second.At(0, 1) != 25 || second.NNZ() != 1 {
		t.Fatalf("second epoch (0,1) = %g nnz %d, want only the new 25 bytes", second.At(0, 1), second.NNZ())
	}
	if idle := w.NextAffinity(); idle.Total() != 0 {
		t.Fatalf("idle epoch total = %g, want 0", idle.Total())
	}
}

// TestTrafficSparseConcurrentRecord hammers the per-row tables from
// many goroutines: the lock-free counters of a row must neither lose nor
// double-count a transfer, while first sightings insert into it.
func TestTrafficSparseConcurrentRecord(t *testing.T) {
	n := comm.DenseOrderThreshold + 100
	tr := newTraffic(n)
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Spread across pairs (and rows); every worker also hits
				// one shared hot pair to exercise contention.
				tr.Record(w+1, n-1-w, 3)
				tr.Record(0, n-1, 1)
			}
		}(w)
	}
	wg.Wait()
	bytes, ops := tr.Totals()
	wantBytes := uint64(workers*perWorker*3 + workers*perWorker)
	if bytes != wantBytes {
		t.Fatalf("bytes = %d, want %d", bytes, wantBytes)
	}
	if want := uint64(2 * workers * perWorker); ops != want {
		t.Fatalf("ops = %d, want %d", ops, want)
	}
	if got := tr.Affinity().At(0, n-1); got != float64(workers*perWorker) {
		t.Fatalf("hot pair = %g, want %d", got, workers*perWorker)
	}
}

// TestTrafficWindowsTrackGrowingRows: a window's baseline mirrors the
// recorder's counters position for position, so pairs first seen after
// a baseline was taken (a row's slots outgrow it), windows created
// at different times, and both recorder modes must all carve the same
// disjoint epochs. Snapshots are frozen and their rows ascend.
func TestTrafficWindowsTrackGrowingRows(t *testing.T) {
	for _, n := range []int{8, comm.DenseOrderThreshold + 64} {
		tr := newTraffic(n)
		early := tr.NewWindow()
		for j := n - 1; j > 0; j -= 2 { // descending: rows must come out sorted
			tr.Record(0, j, 10)
		}
		first := early.NextAffinity()
		if want := float64(10 * (n / 2)); first.Total() != want {
			t.Fatalf("order %d: first epoch total %g, want %g", n, first.Total(), want)
		}
		last := -1
		first.ForEachRow(0, func(j int, _ float64) {
			if j <= last {
				t.Fatalf("order %d: row 0 not ascending (%d after %d)", n, j, last)
			}
			last = j
		})

		late := tr.NewWindow() // empty baseline: sees the whole history
		tr.Record(0, n-1, 5)   // a pair both baselines know
		tr.Record(n-1, 1, 3)   // a pair neither has seen: its row grew
		if first.At(0, n-1) != 10 || first.At(n-1, 1) != 0 {
			t.Fatalf("order %d: a returned snapshot changed under later records", n)
		}
		second := early.NextAffinity()
		if second.NNZ() != 2 || second.At(0, n-1) != 5 || second.At(n-1, 1) != 3 {
			t.Fatalf("order %d: second epoch nnz %d, (0,%d)=%g, (%d,1)=%g", n, second.NNZ(), n-1, second.At(0, n-1), n-1, second.At(n-1, 1))
		}
		all := late.NextAffinity()
		if all.At(0, n-1) != 15 || all.At(n-1, 1) != 3 || all.Total() != first.Total()+8 {
			t.Fatalf("order %d: late window total %g, want the full history %g", n, all.Total(), first.Total()+8)
		}
		if early.NextAffinity().Total() != 0 || late.NextAffinity().Total() != 0 {
			t.Fatalf("order %d: idle epochs are not empty", n)
		}
	}
}

// TestObservedWindowAffinitySharesDefaultWindow: ObservedWindow and
// ObservedWindowAffinity advance one window — an epoch goes to
// whichever is called first, in the representation asked for.
func TestObservedWindowAffinitySharesDefaultWindow(t *testing.T) {
	p := MustProgram(comm.DenseOrderThreshold + 1)
	p.Traffic().Record(1, 2, 40)
	a := p.ObservedWindowAffinity()
	if a.At(1, 2) != 40 {
		t.Fatalf("affinity epoch (1,2) = %g, want 40", a.At(1, 2))
	}
	if m := p.ObservedWindow(); m.Total() != 0 {
		t.Fatalf("dense epoch after the affinity one holds %g bytes, want 0", m.Total())
	}
	p.Traffic().Record(1, 2, 2)
	if m := p.ObservedWindow(); m.At(1, 2) != 2 {
		t.Fatalf("dense epoch (1,2) = %g, want 2", m.At(1, 2))
	}
	if a := p.ObservedWindowAffinity(); a.Total() != 0 {
		t.Fatalf("affinity epoch after the dense one holds %g bytes, want 0", a.Total())
	}
}

// TestTrafficWindowConcurrentWithRecord: windows advance while writers
// record (run under -race); every byte lands in exactly one epoch.
func TestTrafficWindowConcurrentWithRecord(t *testing.T) {
	n := comm.DenseOrderThreshold + 10
	tr := newTraffic(n)
	w := tr.NewWindow()
	const workers, perWorker = 4, 2000
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Record(k, (k+1+i%50)%n, 2)
			}
		}(k)
	}
	var seen float64
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		seen += w.NextAffinity().Total()
	}
	seen += w.NextAffinity().Total()
	if want := float64(workers * perWorker * 2); seen != want {
		t.Fatalf("epochs sum to %g bytes, want %g", seen, want)
	}
}

// TestTrafficHubRowGrowsUnderConcurrentRecord: writers insert the same
// fresh pairs into one hub row at once, so its index grows again and
// again and first sightings race, while every writer also adds into a
// pair seen from the start and a window advances and recycles its
// snapshots. No add may be lost across a grow and no pair may get two
// slots: per destination the epochs sum to exactly what was recorded,
// and so do Totals. Run it under -race.
func TestTrafficHubRowGrowsUnderConcurrentRecord(t *testing.T) {
	const n, hub, hot, workers = 2048, 7, 1, 8
	tr := newTraffic(n)
	w := tr.NewWindow()
	tr.Record(hub, hot, 1)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for to := 0; to < n; to++ { // a new destination each time
				tr.Record(hub, to, to+1)
				tr.Record(hub, hot, 1)
			}
		}()
	}
	close(start)
	got := make([]float64, n)
	epoch := func() {
		a := w.NextAffinity()
		a.ForEach(func(i, j int, v float64) {
			if i != hub {
				t.Errorf("epoch holds (%d,%d), outside the hub row", i, j)
			}
			got[j] += v
		})
		w.Recycle(a)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		epoch()
	}
	epoch()
	var wantBytes uint64
	for to := range n {
		want := float64(workers * (to + 1))
		if to == hot {
			want += 1 + workers*n
		}
		if to == hub {
			want = 0
		}
		if got[to] != want {
			t.Fatalf("(%d,%d): epochs sum to %g bytes, want %g", hub, to, got[to], want)
		}
		wantBytes += uint64(want)
	}
	// One seeding record, then per writer n-1 new destinations (the self
	// pair drops) and n hot records.
	if bytes, ops := tr.Totals(); bytes != wantBytes || ops != 1+workers*(2*n-1) {
		t.Fatalf("totals = (%d, %d), want (%d, %d)", bytes, ops, wantBytes, 1+workers*(2*n-1))
	}
	if got, want := tr.Ops(hub, hot), uint64(1+workers+workers*n); got != want { // hot is also a destination
		t.Fatalf("ops(%d,%d) = %d, want %d", hub, hot, got, want)
	}
}
