package orwlnet

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"orwlplace/internal/comm"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/perfsim"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// fleetTasks sizes the machine-global task space: each of the two
// simulated peers owns 16 tasks, enough to span NUMA boundaries on the
// 32-PU Fig. 2 testbed (a smaller block would fit inside one NUMA node,
// where every within-block pattern costs the same and no shift could
// ever be worth adopting).
const fleetTasks = 32

// startCtrlFleetServer runs a daemon hosting a placement fleet AND the
// fleet control plane over the paper's Fig. 2 testbed. The returned
// controller is epoch-driven by the tests (no background ticker), so
// adoption timing is deterministic.
func startCtrlFleetServer(t *testing.T) (*Server, *ctrlplane.Controller, string) {
	t.Helper()
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine("fig2", topology.Fig2Machine()); err != nil {
		t.Fatal(err)
	}
	ctrl := fleetController(t, fleet)
	srv, addr := serveCtrlFleet(t, fleet, ctrl)
	return srv, ctrl, addr
}

// fleetController is the test-driven control plane over fleet.
func fleetController(t *testing.T, fleet *placement.MultiService) *ctrlplane.Controller {
	t.Helper()
	threads := make([]perfsim.Thread, fleetTasks)
	for i := range threads {
		threads[i] = perfsim.Thread{ComputeCycles: 1e5, WorkingSet: 1 << 20, MemoryTraffic: 1 << 14}
	}
	ctrl, err := ctrlplane.NewController(fleet, ctrlplane.Config{
		Adaptive: placement.AdaptiveConfig{
			// A long horizon: the per-peer half-patterns yield a smaller
			// modeled gain than the golden shift's machine-wide ones, and
			// these tests exercise the wire loop, not the adoption bar.
			Horizon:  500,
			Workload: &perfsim.Workload{Name: "fleet-test", Threads: threads, Iterations: 1},
		},
		StaleAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

func serveCtrlFleet(t *testing.T, fleet *placement.MultiService, ctrl *ctrlplane.Controller) (*Server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, nil, WithPlacement(fleet), WithControlPlane(ctrl))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}

// fleetRing / fleetClusters are the golden shift's phases, sliced per
// peer: each of the two simulated processes owns half the task space
// and generates only its local half of the machine-wide pattern.
func fleetRing(count int, vol float64) *comm.Matrix {
	m := comm.NewMatrix(count)
	for i := 0; i+1 < count; i++ {
		m.AddSym(i, i+1, vol)
	}
	return m
}

func fleetClusters(count, k int, vol float64) *comm.Matrix {
	m := comm.NewMatrix(count)
	for base := 0; base < k; base++ {
		var members []int
		for i := base; i < count; i += k {
			members = append(members, i)
		}
		for x := 0; x < len(members); x++ {
			for y := x + 1; y < len(members); y++ {
				m.AddSym(members[x], members[y], vol)
			}
		}
	}
	return m
}

// TestFleetLoopEndToEnd is the acceptance scenario over the real wire:
// two client processes lease disjoint halves of one machine's task
// space, report their observed traffic, and both subscribe. The
// controller reconciles the merged matrix; when the traffic shifts,
// both watchers receive the same epoch-stamped machine-global
// assignment — without restarting anything.
func TestFleetLoopEndToEnd(t *testing.T) {
	_, ctrl, addr := startCtrlFleetServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const half = fleetTasks / 2
	type peer struct {
		rs    *RemoteService
		lease uint64
		base  int
	}
	var peers [2]*peer
	for i := range peers {
		rs, err := DialPlacementService(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		lease, err := rs.RegisterLease(ctx, "", []string{"alpha", "beta"}[i], i*half, half)
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = &peer{rs: rs, lease: lease, base: i * half}
	}

	watch := make([]<-chan Remap, 2)
	for i, p := range peers {
		ch, err := p.rs.WatchRemaps(ctx, "")
		if err != nil {
			t.Fatal(err)
		}
		watch[i] = ch
	}

	report := func(seq uint64, pattern func(int, float64) *comm.Matrix) {
		t.Helper()
		for _, p := range peers {
			if err := p.rs.ReportObserved(ctx, p.lease, seq, pattern(half, 1<<20)); err != nil {
				t.Fatal(err)
			}
		}
	}
	recv := func(i int) Remap {
		t.Helper()
		select {
		case ev, ok := <-watch[i]:
			if !ok {
				t.Fatalf("watcher %d: channel closed", i)
			}
			return ev
		case <-ctx.Done():
			t.Fatalf("watcher %d: no remap before timeout", i)
		}
		panic("unreachable")
	}

	// Ring traffic primes the machine: both watchers get epoch 1.
	report(1, func(n int, vol float64) *comm.Matrix { return fleetRing(n, vol) })
	if rep, err := ctrl.Epoch("fig2"); err != nil || rep == nil || !rep.Adopted {
		t.Fatalf("priming epoch = (%+v, %v), want adoption", rep, err)
	}
	for i := range peers {
		ev := recv(i)
		if ev.Epoch != 1 || ev.Machine != "fig2" {
			t.Fatalf("watcher %d: first remap = epoch %d machine %q, want 1/fig2", i, ev.Epoch, ev.Machine)
		}
		if len(ev.Assignment.ComputePU) != fleetTasks {
			t.Fatalf("watcher %d: remap covers %d tasks, want the machine-global %d", i, len(ev.Assignment.ComputePU), fleetTasks)
		}
	}

	// The shift: clustered traffic the ring mapping is wrong for. Both
	// watchers receive the SAME epoch-2 assignment.
	report(2, func(n int, vol float64) *comm.Matrix { return fleetClusters(n, 4, vol) })
	if rep, err := ctrl.Epoch("fig2"); err != nil || rep == nil || !rep.Adopted {
		t.Fatalf("shift epoch = (%+v, %v), want adoption", rep, err)
	}
	a := recv(0)
	b := recv(1)
	if a.Epoch != 2 || b.Epoch != 2 {
		t.Fatalf("shift remap epochs = %d/%d, want 2/2", a.Epoch, b.Epoch)
	}
	if len(a.Assignment.ComputePU) != len(b.Assignment.ComputePU) {
		t.Fatal("watchers received different assignments")
	}
	for i := range a.Assignment.ComputePU {
		if a.Assignment.ComputePU[i] != b.Assignment.ComputePU[i] {
			t.Fatalf("watchers disagree at task %d: %d vs %d", i, a.Assignment.ComputePU[i], b.Assignment.ComputePU[i])
		}
	}

	// The v5 stats tail sees all of it.
	stats, err := peers[0].rs.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fleet.ReportsReceived != 4 || stats.Fleet.PeersTracked != 2 ||
		stats.Fleet.RemapsPushed < 4 || stats.Fleet.Watchers != 2 {
		t.Fatalf("fleet stats = %+v", stats.Fleet)
	}
}

// TestWatchCatchUpAck: a subscriber arriving after an adoption gets
// the latest remap as the subscription ack, pre-delivered on the
// channel — and one subscribed at the current epoch gets nothing.
func TestWatchCatchUpAck(t *testing.T) {
	_, ctrl, addr := startCtrlFleetServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	rs, err := DialPlacementService(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	lease, err := rs.RegisterLease(ctx, "fig2", "solo", 0, fleetTasks)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.ReportObserved(ctx, lease, 1, fleetRing(fleetTasks, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Epoch("fig2"); err != nil {
		t.Fatal(err)
	}

	late, err := DialPlacementService(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	ch, err := late.WatchRemaps(ctx, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		if ev.Epoch != 1 || ev.Assignment == nil {
			t.Fatalf("catch-up = %+v, want epoch 1 with assignment", ev)
		}
	case <-ctx.Done():
		t.Fatal("no catch-up delivered")
	}
}

// TestWatchResubscribeOnReconnect kills the watch connection under the
// subscriber and proves the subscription survives: the watcher redials
// with its last applied epoch and receives a remap adopted during the
// outage.
func TestWatchResubscribeOnReconnect(t *testing.T) {
	_, ctrl, addr := startCtrlFleetServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	rs, err := DialPlacementService(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	lease, err := rs.RegisterLease(ctx, "fig2", "phoenix", 0, fleetTasks)
	if err != nil {
		t.Fatal(err)
	}

	// A second stub owns the watch, so killing its connection does not
	// kill the reporting path.
	ws, err := DialPlacementService(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	ch, err := ws.WatchRemaps(ctx, "fig2")
	if err != nil {
		t.Fatal(err)
	}

	if err := rs.ReportObserved(ctx, lease, 1, fleetRing(fleetTasks, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Epoch("fig2"); err != nil {
		t.Fatal(err)
	}
	if ev := <-ch; ev.Epoch != 1 {
		t.Fatalf("first remap epoch = %d, want 1", ev.Epoch)
	}

	// Kill the watch connection out from under the subscription, then
	// adopt a remap during the outage.
	ws.primary().conn.Close()
	if err := rs.ReportObserved(ctx, lease, 2, fleetClusters(fleetTasks, 4, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if rep, err := ctrl.Epoch("fig2"); err != nil || rep == nil || !rep.Adopted {
		t.Fatalf("outage epoch = (%+v, %v), want adoption", rep, err)
	}

	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("watch channel closed instead of resubscribing")
		}
		if ev.Epoch != 2 {
			t.Fatalf("post-reconnect remap epoch = %d, want 2", ev.Epoch)
		}
	case <-ctx.Done():
		t.Fatal("no remap after reconnect")
	}
}

// TestFleetOpsWithoutControlPlane: a connection to a daemon that hosts
// no controller gets a clean refusal.
func TestFleetOpsWithoutControlPlane(t *testing.T) {
	_, _, addr := startPlacementServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rs, err := DialPlacementService(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	if _, err := rs.RegisterLease(ctx, "", "p", 0, 4); err == nil || !strings.Contains(err.Error(), "no fleet control plane") {
		t.Fatalf("lease against plain daemon: err = %v, want control-plane refusal", err)
	}
}
