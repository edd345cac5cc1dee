package orwlplace

// In-package tests for the facade's window recycling: a window the
// daemon acknowledged is handed back for the next report to refill,
// and one whose report failed stays queued, untouched.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/orwl"
	"orwlplace/internal/orwlnet"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// recycleRig serves a fig2 control plane on loopback and dials it
// without retries, so a closed daemon fails the call. stop closes the
// server and waits for it.
func recycleRig(t *testing.T) (ctrl *ctrlplane.Controller, rs *RemotePlacement, stop func()) {
	t.Helper()
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine("fig2", topology.Fig2Machine()); err != nil {
		t.Fatal(err)
	}
	ctrl, err := ctrlplane.NewController(fleet, ctrlplane.Config{StaleAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := orwlnet.NewServer(lis, nil, orwlnet.WithPlacement(fleet), orwlnet.WithControlPlane(ctrl))
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { defer close(served); _ = srv.Serve() }()
	rs, err = DialPlacement(context.Background(), lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	var once sync.Once
	stop = func() { once.Do(func() { srv.Close(); <-served }) }
	t.Cleanup(stop)
	return ctrl, rs, stop
}

func TestFleetReportRecyclesAcknowledgedWindowsOnly(t *testing.T) {
	const n = 32
	_, rs, stop := recycleRig(t)
	ctx := context.Background()
	prog := orwl.MustProgram(n)
	fa, err := NewFleetAdaptive(ctx, rs, prog, FleetAdaptiveConfig{Peer: "recycle"})
	if err != nil {
		t.Fatal(err)
	}
	tr := prog.Traffic()
	record := func(vol int) {
		for i := 0; i < n; i++ {
			tr.Record(i, (i+1)%n, vol)
		}
	}

	// Acknowledged: the reported window comes back to the program's
	// observed window, and the next snapshot is the same matrix.
	record(1)
	w0 := prog.ObservedWindowAffinity()
	prog.RecycleObservedWindow(w0)
	record(2)
	if err := fa.Report(ctx); err != nil {
		t.Fatal(err)
	}
	record(3)
	if w := prog.ObservedWindowAffinity(); w != w0 {
		t.Fatalf("the acknowledged window was not handed back: got %p, want %p", w, w0)
	} else if w.At(0, 1) != 3 {
		t.Fatalf("refilled window holds %g at (0,1), want 3", w.At(0, 1))
	}
	prog.RecycleObservedWindow(w0)

	// Failed: the window stays queued, and later snapshots never write
	// into it. A short context per Report cuts the stub's retry backoff
	// off after the first failed attempt.
	stop()
	reportDead := func() error {
		rctx, cancel := context.WithTimeout(ctx, 2*time.Millisecond)
		defer cancel()
		return fa.Report(rctx)
	}
	record(4)
	if err := reportDead(); err == nil {
		t.Fatal("report to a closed daemon succeeded")
	}
	fa.mu.Lock()
	queued := fa.pending[0].w
	fa.mu.Unlock()
	if queued != w0 || queued.At(0, 1) != 4 {
		t.Fatalf("queued window %p holds %g, want the refilled %p holding 4", queued, queued.At(0, 1), w0)
	}
	want := queued.CloneAffinity()
	record(5)
	if err := reportDead(); err == nil {
		t.Fatal("report to a closed daemon succeeded")
	}
	record(6)
	if w := prog.ObservedWindowAffinity(); w == queued {
		t.Fatal("a queued window was refilled by a later snapshot")
	}
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if len(fa.pending) != 2 || fa.pending[0].w != queued || fa.pending[1].w == queued {
		t.Fatalf("retransmit queue = %+v, want the failed window then the next one", fa.pending)
	}
	if got := fa.pending[0].w; !sameAffinity(got, want) {
		t.Fatal("a queued window changed while it waited for its retransmit")
	}
}

// TestFleetIdleReportRecyclesWindow: an idle Report hands its empty
// window back, so after warm-up repeated idle Reports of a 1,024-task
// program allocate nothing (a fresh window is 24 KB of row headers),
// send no frame and burn no seq.
func TestFleetIdleReportRecyclesWindow(t *testing.T) {
	const n = 1024
	_, rs, _ := recycleRig(t)
	ctx := context.Background()
	prog := orwl.MustProgram(n)
	fa, err := NewFleetAdaptive(ctx, rs, prog, FleetAdaptiveConfig{Peer: "idle"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		prog.Traffic().Record(i, (i+1)%n, 1)
	}
	for range 2 { // a full window, then the first idle one
		if err := fa.Report(ctx); err != nil {
			t.Fatal(err)
		}
	}
	_, out := rs.WirePoolStats()
	fa.mu.Lock()
	seq := fa.seq
	fa.mu.Unlock()
	if allocs := testing.AllocsPerRun(50, func() {
		if err := fa.Report(ctx); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("an idle Report made %v allocations, want 0", allocs)
	}
	if _, got := rs.WirePoolStats(); got != out {
		t.Errorf("idle Reports wrote %d bytes, want none", got-out)
	}
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if fa.seq != seq {
		t.Errorf("idle Reports moved the seq from %d to %d", seq, fa.seq)
	}
}

// TestFleetReportRecyclingConcurrentPeers: peers reporting at once
// share the daemon's pooled decode targets and each recycle their own
// windows; every byte recorded is merged exactly once, at its owner's
// offset.
func TestFleetReportRecyclingConcurrentPeers(t *testing.T) {
	const peers, n, rounds = 4, comm.DenseOrderThreshold + 88, 20
	ctrl, rs, _ := recycleRig(t)
	ctx := context.Background()
	progs := make([]*orwl.Program, peers)
	fas := make([]*FleetAdaptive, peers)
	for p := range progs {
		progs[p] = orwl.MustProgram(n)
		fa, err := NewFleetAdaptive(ctx, rs, progs[p], FleetAdaptiveConfig{Peer: fmt.Sprintf("peer-%d", p), TaskBase: p * n})
		if err != nil {
			t.Fatal(err)
		}
		fas[p] = fa
	}
	var wg sync.WaitGroup
	for p := range progs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			tr := progs[p].Traffic()
			for r := 0; r < rounds; r++ {
				for i := 0; i < n; i++ {
					tr.Record(i, (i+1+r%3)%n, 64*(p+1)+r)
				}
				if err := fas[p].Report(ctx); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	merged := ctrl.Collector().WindowAffinity("fig2")
	if merged == nil {
		t.Fatal("nothing merged")
	}
	for p, prog := range progs {
		want := prog.Traffic().Affinity()
		want.ForEach(func(i, j int, v float64) {
			if got := merged.At(p*n+i, p*n+j); got != v {
				t.Fatalf("peer %d cell (%d,%d): merged %g, recorded %g", p, i, j, got, v)
			}
		})
		if got := merged.NNZ(); got != peers*want.NNZ() {
			t.Fatalf("merged %d nonzeros, want %d", got, peers*want.NNZ())
		}
	}
}

// sameAffinity reports whether a and b hold the same cells.
func sameAffinity(a, b comm.Affinity) bool {
	if a.Order() != b.Order() || a.NNZ() != b.NNZ() {
		return false
	}
	same := true
	a.ForEach(func(i, j int, v float64) { same = same && b.At(i, j) == v })
	return same
}

// TestFleetReportDropsOverCapWindow: a queued window over the wire's
// cell cap (a full order-1449 one) is refused before it is sent, so
// Report drops and counts it instead of requeueing it in front of every
// later window: the window behind it ships, and the next Report is
// clean.
func TestFleetReportDropsOverCapWindow(t *testing.T) {
	const n = 1449
	ctrl, rs, _ := recycleRig(t)
	ctx := context.Background()
	prog := orwl.MustProgram(n)
	fa, err := NewFleetAdaptive(ctx, rs, prog, FleetAdaptiveConfig{Peer: "wide"})
	if err != nil {
		t.Fatal(err)
	}
	rowNNZ := make([]int, n)
	for i := range rowNNZ {
		rowNNZ[i] = n
	}
	over := comm.NewSparseSized(rowNNZ)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			over.Append(i, j, 1)
		}
	}
	fa.mu.Lock()
	fa.seq++
	fa.pending = append(fa.pending, pendingReport{seq: fa.seq, w: over})
	fa.mu.Unlock()

	tr := prog.Traffic()
	tr.Record(0, 1, 1024)
	var ce *codec.CellsError
	if err := fa.Report(ctx); !errors.As(err, &ce) || ce.Order != n || ce.Cells != n*n {
		t.Fatalf("report: err = %v, want the cell cap's refusal of the order-%d window", err, n)
	}
	if st := fa.Stats(); st.DroppedWindows != 1 || st.Reports != 1 {
		t.Fatalf("after the refusal: %d dropped, %d reported, want 1 and 1", st.DroppedWindows, st.Reports)
	}
	tr.Record(1, 2, 1024)
	if err := fa.Report(ctx); err != nil {
		t.Fatalf("the next report: %v", err)
	}
	if st := fa.Stats(); st.DroppedWindows != 1 || st.Reports != 2 {
		t.Fatalf("after the next report: %d dropped, %d reported, want 1 and 2", st.DroppedWindows, st.Reports)
	}
	if reports, _, _ := ctrl.Collector().Counters(); reports != 2 {
		t.Fatalf("the daemon merged %d reports, want 2", reports)
	}
}
