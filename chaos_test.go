package orwlplace_test

// PR 8 chaos acceptance: kill the daemon mid-fleet-loop, restart it,
// and prove both clients reconverge on identical epoch-stamped remaps
// — with a snapshot (epochs resume where they stopped) and without
// one (clients re-lease under their ownership tokens and converge on
// the reset epoch stream).

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"orwlplace"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/orwl"
	"orwlplace/internal/orwlnet"
	"orwlplace/internal/perfsim"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// chaosTasks sizes the machine-global task space (two peers, half
// each), matching the wire-level fleet tests: big enough to span NUMA
// boundaries on the Fig. 2 testbed so the golden shift is worth
// adopting.
const chaosTasks = 32

// chaosDaemon is one in-process incarnation of `orwlnetd -place
// -adaptive`: a controller the test drives epoch-by-epoch (so adoption
// timing is deterministic) and a server the test can kill abruptly.
type chaosDaemon struct {
	ctrl *ctrlplane.Controller
	srv  *orwlnet.Server
	done chan struct{}
}

// startChaosDaemon brings a daemon incarnation up on addr ("" = pick a
// port), optionally restoring a control-plane snapshot first.
func startChaosDaemon(t *testing.T, addr string, snap *ctrlplane.Snapshot) (*chaosDaemon, string) {
	t.Helper()
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine("fig2", topology.Fig2Machine()); err != nil {
		t.Fatal(err)
	}
	threads := make([]perfsim.Thread, chaosTasks)
	for i := range threads {
		threads[i] = perfsim.Thread{ComputeCycles: 1e5, WorkingSet: 1 << 20, MemoryTraffic: 1 << 14}
	}
	ctrl, err := ctrlplane.NewController(fleet, ctrlplane.Config{
		Adaptive: placement.AdaptiveConfig{
			Horizon:  500,
			Workload: &perfsim.Workload{Name: "chaos-test", Threads: threads, Iterations: 1},
		},
		StaleAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		if err := ctrl.Restore(snap); err != nil {
			t.Fatal(err)
		}
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := orwlnet.NewServer(lis, nil, orwlnet.WithPlacement(fleet), orwlnet.WithControlPlane(ctrl))
	if err != nil {
		t.Fatal(err)
	}
	d := &chaosDaemon{ctrl: ctrl, srv: srv, done: make(chan struct{})}
	go func() { srv.Serve(); close(d.done) }()
	return d, lis.Addr().String()
}

// kill closes the daemon abruptly — every client connection dies
// mid-conversation — and waits for the serve loop to exit so the port
// can be rebound by the next incarnation.
func (d *chaosDaemon) kill(t *testing.T) {
	t.Helper()
	d.srv.Close()
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not drain after kill")
	}
}

// chaosClient is one fleet member: a program generating synthetic
// traffic, a FleetAdaptive loop, and a log of every remap it applied.
type chaosClient struct {
	name string
	fa   *orwlplace.FleetAdaptive
	stop context.CancelFunc
	done chan error

	mu      sync.Mutex
	phase   int // 0 = ring, 1 = clusters
	applied []orwlplace.Remap
}

// startChaosClient dials the daemon and runs the fleet loop in the
// background.
func startChaosClient(t *testing.T, ctx context.Context, addr, name string, base int) *chaosClient {
	t.Helper()
	rs, err := orwlplace.DialPlacement(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })

	const half = chaosTasks / 2
	prog := orwl.MustProgram(half)
	fa, err := orwlplace.NewFleetAdaptive(ctx, rs, prog, orwlplace.FleetAdaptiveConfig{
		Peer:     name,
		TaskBase: base,
		Interval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	runCtx, cancel := context.WithCancel(ctx)
	c := &chaosClient{name: name, fa: fa, stop: cancel, done: make(chan error, 1)}
	t.Cleanup(cancel)

	// Traffic generator: each peer records its local slice of the
	// machine-wide pattern — a ring until the test flips the phase,
	// then the clustered pattern the ring mapping is wrong for.
	go func() {
		tr := prog.Traffic()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-runCtx.Done():
				return
			case <-tick.C:
			}
			c.mu.Lock()
			phase := c.phase
			c.mu.Unlock()
			if phase == 0 {
				for i := 0; i+1 < half; i++ {
					tr.Record(i, i+1, 1<<20)
				}
			} else {
				const k = 4
				for b := 0; b < k; b++ {
					for x := b; x < half; x += k {
						for y := x + k; y < half; y += k {
							tr.Record(x, y, 1<<20)
						}
					}
				}
			}
		}
	}()

	go func() {
		c.done <- fa.Run(runCtx, func(ev orwlplace.Remap) {
			c.mu.Lock()
			c.applied = append(c.applied, ev)
			c.mu.Unlock()
		})
	}()
	return c
}

func (c *chaosClient) setPhase(p int) {
	c.mu.Lock()
	c.phase = p
	c.mu.Unlock()
}

func (c *chaosClient) remaps() []orwlplace.Remap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]orwlplace.Remap(nil), c.applied...)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// driveEpoch runs reconciliation epochs until one adopts.
func driveEpoch(t *testing.T, ctrl *ctrlplane.Controller, what string) uint64 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rep, err := ctrl.Epoch("")
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if rep != nil && rep.Adopted {
			return ctrl.Latest("").Epoch
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for adoption: %s", what)
	return 0
}

// sameAssignment compares the machine-global compute mapping of two
// remap events.
func sameAssignment(a, b orwlplace.Remap) bool {
	if a.Assignment == nil || b.Assignment == nil || len(a.Assignment.ComputePU) != len(b.Assignment.ComputePU) {
		return false
	}
	for i, pu := range a.Assignment.ComputePU {
		if b.Assignment.ComputePU[i] != pu {
			return false
		}
	}
	return true
}

// TestChaosRestartWithSnapshot: the daemon dies abruptly mid-loop and
// comes back from its snapshot. Both clients ride out the outage and
// apply the post-restart remap; the epoch stream continues past the
// snapshotted epoch instead of resetting.
func TestChaosRestartWithSnapshot(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	d1, addr := startChaosDaemon(t, "", nil)
	alpha := startChaosClient(t, ctx, addr, "alpha", 0)
	beta := startChaosClient(t, ctx, addr, "beta", chaosTasks/2)
	clients := []*chaosClient{alpha, beta}

	// Phase 1: ring traffic flows, the controller primes — epoch 1 —
	// and both clients apply it.
	waitFor(t, "first reports", 10*time.Second, func() bool {
		return d1.ctrl.Stats().ReportsReceived >= 2
	})
	ep1 := driveEpoch(t, d1.ctrl, "priming epoch")
	waitFor(t, "both clients on the primed epoch", 10*time.Second, func() bool {
		return alpha.fa.AppliedEpoch() >= ep1 && beta.fa.AppliedEpoch() >= ep1
	})

	// Phase 2: snapshot (the periodic snapshotter's work), then kill.
	// Everything after the snapshot dies with the daemon.
	snap := d1.ctrl.Snapshot()
	d1.kill(t)

	// Clients are now degraded: reports fail and queue, the last
	// applied placement stays bound, the watchers redial in a loop.
	time.Sleep(50 * time.Millisecond)

	// Phase 3: restart on the same address from the snapshot. The
	// restored controller resumes at the snapshotted epoch.
	d2, _ := startChaosDaemon(t, addr, snap)
	if got := d2.ctrl.Latest("").Epoch; got != ep1 {
		t.Fatalf("restored daemon resumed at epoch %d, want snapshotted %d", got, ep1)
	}
	waitFor(t, "watchers resubscribed", 15*time.Second, func() bool {
		return d2.ctrl.Stats().Watchers >= 2
	})
	waitFor(t, "reports resumed", 15*time.Second, func() bool {
		return d2.ctrl.Stats().ReportsReceived >= 2
	})

	// Phase 4: the golden shift. The restored reconciler measures drift
	// against its restored baseline and adopts — stamped ABOVE the
	// snapshotted epoch (continuity, not a reset).
	for _, c := range clients {
		c.setPhase(1)
	}
	waitFor(t, "post-shift reports", 15*time.Second, func() bool {
		return d2.ctrl.Stats().ReportsReceived >= 6
	})
	ep2 := driveEpoch(t, d2.ctrl, "post-restart shift epoch")
	if ep2 <= ep1 {
		t.Fatalf("post-restart adoption epoch %d did not continue past snapshotted %d", ep2, ep1)
	}
	waitFor(t, "both clients on the post-restart epoch", 15*time.Second, func() bool {
		return alpha.fa.AppliedEpoch() >= ep2 && beta.fa.AppliedEpoch() >= ep2
	})
	d2.kill(t)
	for _, c := range clients {
		c.stop()
		<-c.done
	}

	// Both clients saw identical epoch-stamped remaps: same epochs in
	// the same order, same machine-global assignment at every epoch.
	ra, rb := alpha.remaps(), beta.remaps()
	if len(ra) == 0 || len(ra) != len(rb) {
		t.Fatalf("remap logs diverge: alpha %d events, beta %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Epoch != rb[i].Epoch || !sameAssignment(ra[i], rb[i]) {
			t.Fatalf("remap %d diverges: alpha epoch %d vs beta epoch %d", i, ra[i].Epoch, rb[i].Epoch)
		}
	}
	// And the lease survived the restart: nobody needed to re-register.
	for _, c := range clients {
		if st := c.fa.Stats(); st.Releases != 0 {
			t.Errorf("%s re-leased %d time(s) despite the snapshot", c.name, st.Releases)
		}
	}
}

// TestFleetReportQueueOverflowCounted: during a prolonged outage the
// facade's retransmit queue is bounded — the oldest windows are
// dropped, and the drops are counted in the loop's stats instead of
// vanishing silently.
func TestFleetReportQueueOverflowCounted(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	d, addr := startChaosDaemon(t, "", nil)
	rs, err := orwlplace.DialPlacement(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	prog := orwl.MustProgram(4)
	fa, err := orwlplace.NewFleetAdaptive(ctx, rs, prog, orwlplace.FleetAdaptiveConfig{Peer: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	d.kill(t)

	// 20 windows against a dead daemon: the 16-slot queue fills, then
	// each further window evicts the oldest. A short context per Report
	// cuts the stub's retry backoff off after the first failed attempt.
	tr := prog.Traffic()
	for i := 0; i < 20; i++ {
		tr.Record(0, 1, 1024)
		rctx, rcancel := context.WithTimeout(ctx, 2*time.Millisecond)
		err := fa.Report(rctx)
		rcancel()
		if err == nil {
			t.Fatal("report to a dead daemon succeeded")
		}
	}
	st := fa.Stats()
	if st.DroppedWindows != 4 {
		t.Fatalf("DroppedWindows = %d, want 4 (20 windows into a 16-slot queue)", st.DroppedWindows)
	}
	if st.Reports != 0 {
		t.Fatalf("Reports = %d while the daemon was dead, want 0", st.Reports)
	}
}

// TestChaosRestartWithoutSnapshot: the daemon comes back with amnesia.
// Clients' reports are refused with "unknown lease"; the facade
// re-registers under the same ownership token and the fleet still
// reconverges on the (reset) epoch stream.
func TestChaosRestartWithoutSnapshot(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	d1, addr := startChaosDaemon(t, "", nil)
	alpha := startChaosClient(t, ctx, addr, "alpha", 0)
	beta := startChaosClient(t, ctx, addr, "beta", chaosTasks/2)
	clients := []*chaosClient{alpha, beta}

	waitFor(t, "first reports", 10*time.Second, func() bool {
		return d1.ctrl.Stats().ReportsReceived >= 2
	})
	ep1 := driveEpoch(t, d1.ctrl, "priming epoch")
	waitFor(t, "both clients on the primed epoch", 10*time.Second, func() bool {
		return alpha.fa.AppliedEpoch() >= ep1 && beta.fa.AppliedEpoch() >= ep1
	})
	d1.kill(t)

	// Restart with no snapshot: every lease is gone.
	d2, _ := startChaosDaemon(t, addr, nil)
	// The facade loops hit "unknown lease", re-register with their
	// tokens, and reports flow again.
	waitFor(t, "clients re-leased", 15*time.Second, func() bool {
		return alpha.fa.Stats().Releases > 0 && beta.fa.Stats().Releases > 0
	})
	waitFor(t, "watchers resubscribed", 15*time.Second, func() bool {
		return d2.ctrl.Stats().Watchers >= 2
	})

	// The amnesiac daemon's epochs restart at 1 — which both clients
	// already applied, so dedup skips it. Only an epoch past their
	// applied mark lands: prime, then shift.
	waitFor(t, "post-restart reports", 15*time.Second, func() bool {
		return d2.ctrl.Stats().ReportsReceived >= 2
	})
	driveEpoch(t, d2.ctrl, "re-priming epoch")
	for _, c := range clients {
		c.setPhase(1)
	}
	waitFor(t, "post-shift reports", 15*time.Second, func() bool {
		return d2.ctrl.Stats().ReportsReceived >= 6
	})
	ep2 := driveEpoch(t, d2.ctrl, "post-restart shift epoch")
	waitFor(t, "both clients past the reset epoch stream", 15*time.Second, func() bool {
		return alpha.fa.AppliedEpoch() >= ep2 && beta.fa.AppliedEpoch() >= ep2
	})
	d2.kill(t)
	for _, c := range clients {
		c.stop()
		<-c.done
	}

	// The applied streams still match event for event.
	ra, rb := alpha.remaps(), beta.remaps()
	if len(ra) == 0 || len(ra) != len(rb) {
		t.Fatalf("remap logs diverge: alpha %d events, beta %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].Epoch != rb[i].Epoch || !sameAssignment(ra[i], rb[i]) {
			t.Fatalf("remap %d diverges: alpha epoch %d vs beta epoch %d", i, ra[i].Epoch, rb[i].Epoch)
		}
	}
}
