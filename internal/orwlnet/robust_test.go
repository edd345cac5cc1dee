package orwlnet

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"orwlplace/internal/comm"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/faultnet"
	"orwlplace/internal/perfsim"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// PR 8 robustness: retry/backoff under injected faults, and the
// hostile-peer hardening acceptance scenarios over the real wire.

// fastRetry keeps fault-injection tests quick: tight backoff, enough
// attempts to outlast the injected failures.
var fastRetry = retrySchedule{attempts: 6, base: time.Millisecond, max: 20 * time.Millisecond}

// TestPlaceRetriesThroughSeveredConnections: the client's dial path is
// wrapped with a fault injector that kills every connection after a
// few writes. With one attempt per call the calls die with the
// connection; with retries, every call lands — the stub revives dead
// pool slots between attempts, and revival goes through the same
// (faulty) dialer, proving recovery is repeatable rather than lucky.
func TestPlaceRetriesThroughSeveredConnections(t *testing.T) {
	_, _, addr := startPlacementServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// 3 writes per connection: the hello plus two calls, then the plan
	// severs it mid-conversation.
	inj := faultnet.New(faultnet.Plan{Seed: 42, SeverAfterWrites: 3})
	rs, err := DialPlacementService(ctx, addr, WithDialFunc(inj.DialFunc(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	rs.retry = fastRetry

	req := &placement.PlaceRequest{Strategy: placement.TreeMatch, Matrix: chainMatrix(4)}
	for i := 0; i < 10; i++ {
		resp, err := rs.Place(ctx, req)
		if err != nil {
			t.Fatalf("place %d under severed connections: %v", i, err)
		}
		if resp.Assignment == nil || len(resp.Assignment.ComputePU) != 4 {
			t.Fatalf("place %d returned a damaged assignment: %+v", i, resp)
		}
	}
	if _, _, _, severed := inj.Counters(); severed == 0 {
		t.Fatal("the fault plan never fired — the test proved nothing")
	}

	// Control: the same fault plan with one attempt per call loses calls.
	inj2 := faultnet.New(faultnet.Plan{Seed: 42, SeverAfterWrites: 3})
	bare, err := DialPlacementService(ctx, addr, WithDialFunc(inj2.DialFunc(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	bare.retry = retrySchedule{attempts: 1}
	var failed bool
	for i := 0; i < 10; i++ {
		if _, err := bare.Place(ctx, req); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		t.Fatal("control with one attempt survived the fault plan — the plan is too weak to test retries")
	}
}

// TestRetryHonoursDeadlineBudget: the caller's deadline is the whole
// call's budget. Every write stalls past it, so the first attempt is
// still in flight when it expires, and the call fails with the
// deadline at once instead of backing off into further attempts.
func TestRetryHonoursDeadlineBudget(t *testing.T) {
	_, _, addr := startPlacementServer(t)
	ctx := context.Background()

	const stall = 400 * time.Millisecond
	inj := faultnet.New(faultnet.Plan{Seed: 9, DelayProb: 1, Delay: stall})
	rs, err := DialPlacementService(ctx, addr, WithDialFunc(inj.DialFunc(nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	callCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = rs.Place(callCtx, &placement.PlaceRequest{Strategy: placement.TreeMatch, Matrix: chainMatrix(4)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("place through a 100%% stall plan: err = %v, want the caller's deadline", err)
	}
	if elapsed := time.Since(start); elapsed >= stall {
		t.Fatalf("place returned after %v, want at the caller's 50ms deadline, before the %v stall ends", elapsed, stall)
	}
}

// TestStubRecoversAfterDaemonRestart: a stub dialed with no option
// survives a daemon restart on the same address. Every Place and Stats
// call after the restart succeeds: the first to find its connection
// dead redials the pool and re-attempts.
func TestStubRecoversAfterDaemonRestart(t *testing.T) {
	srv, svc, addr := startPlacementServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rs, err := DialPlacementService(ctx, addr, WithPoolSize(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	req := &placement.PlaceRequest{Strategy: placement.TreeMatch, Matrix: chainMatrix(4)}
	if _, err := rs.Place(ctx, req); err != nil {
		t.Fatal(err)
	}

	restartPlacementServer(t, srv, svc, addr)
	failed := 0
	for i := 0; i < 20; i++ {
		if _, err := rs.Place(ctx, req); err != nil {
			failed++
			t.Logf("place %d after the restart: %v", i, err)
		}
		if _, err := rs.Stats(ctx); err != nil {
			failed++
			t.Logf("stats %d after the restart: %v", i, err)
		}
	}
	if failed > 0 {
		t.Fatalf("%d of 40 calls failed after the daemon restarted, want 0", failed)
	}
}

// TestFailedCallRevivesPool: a transient failure redials the dead
// pool connections before the call returns, after its last attempt
// too, so the call after it finds a live connection.
func TestFailedCallRevivesPool(t *testing.T) {
	srv, svc, addr := startPlacementServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rs, err := DialPlacementService(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	rs.retry = retrySchedule{attempts: 1}
	req := &placement.PlaceRequest{Strategy: placement.TreeMatch, Matrix: chainMatrix(4)}
	if _, err := rs.Place(ctx, req); err != nil {
		t.Fatal(err)
	}

	restartPlacementServer(t, srv, svc, addr)
	if _, err := rs.Place(ctx, req); err == nil {
		t.Fatal("one attempt on the connection the restart severed succeeded")
	}
	if _, err := rs.Place(ctx, req); err != nil {
		t.Fatalf("the call after the failed one: %v", err)
	}
}

// TestClosedStubDialsNothing: once closed, a stub's calls fail and its
// watch ends without redialing the daemon, so nothing reopens
// connections no one closes.
func TestClosedStubDialsNothing(t *testing.T) {
	_, addr := hardenedFleetServer(t, ctrlplane.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var dials atomic.Int64
	var d net.Dialer
	count := func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return d.DialContext(ctx, network, addr)
	}
	rs, err := DialPlacementService(ctx, addr, WithDialFunc(count), WithPoolSize(2))
	if err != nil {
		t.Fatal(err)
	}
	watch, err := rs.WatchRemaps(ctx, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	rs.Close()
	before := dials.Load()
	if _, err := rs.Stats(ctx); err == nil {
		t.Fatal("stats on a closed stub succeeded")
	}
	if _, err := rs.RegisterLease(ctx, "fig2", "late", 0, 4); err == nil {
		t.Fatal("lease registration on a closed stub succeeded")
	}
	select {
	case _, ok := <-watch:
		if ok {
			t.Fatal("the watch delivered a remap after its stub closed")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the watch outlived its stub's Close")
	}
	if after := dials.Load(); after != before {
		t.Fatalf("closed stub dialed %d times, want 0", after-before)
	}
}

// TestConcurrentFailuresDialEachSlotOnce: calls that fail together
// after a daemon restart leave the redial to one revival, so each dead
// pool slot is dialed once rather than once per failed call.
func TestConcurrentFailuresDialEachSlotOnce(t *testing.T) {
	srv, svc, addr := startPlacementServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var dials atomic.Int64
	var d net.Dialer
	count := func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return d.DialContext(ctx, network, addr)
	}
	const pool, callers = 2, 16
	rs, err := DialPlacementService(ctx, addr, WithDialFunc(count), WithPoolSize(pool))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	req := &placement.PlaceRequest{Strategy: placement.TreeMatch, Matrix: chainMatrix(4)}
	restartPlacementServer(t, srv, svc, addr)
	before := dials.Load()
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := rs.Place(ctx, req)
			errs <- err
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("place after the restart: %v", err)
		}
	}
	if n := dials.Load() - before; n != pool {
		t.Fatalf("%d calls failing together dialed %d times, want %d (once per dead slot)", callers, n, pool)
	}
}

// restartPlacementServer closes srv and serves svc again on its
// address, as a daemon restart would.
func restartPlacementServer(t *testing.T, srv *Server, svc placement.Service, addr string) {
	t.Helper()
	srv.Close()
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(lis, nil, WithPlacement(svc))
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve()
	t.Cleanup(func() { srv2.Close() })
}

// hardenedFleetServer hosts a control plane with the hostile-peer
// limits engaged: a per-lease report rate and per-connection caps.
func hardenedFleetServer(t *testing.T, cfg ctrlplane.Config, opts ...ServerOption) (*ctrlplane.Controller, string) {
	t.Helper()
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine("fig2", topology.Fig2Machine()); err != nil {
		t.Fatal(err)
	}
	if cfg.Adaptive.Workload == nil {
		threads := make([]perfsim.Thread, fleetTasks)
		for i := range threads {
			threads[i] = perfsim.Thread{ComputeCycles: 1e5, WorkingSet: 1 << 20, MemoryTraffic: 1 << 14}
		}
		cfg.Adaptive.Horizon = 500
		cfg.Adaptive.Workload = &perfsim.Workload{Name: "hardened-test", Threads: threads, Iterations: 1}
	}
	if cfg.StaleAfter == 0 {
		cfg.StaleAfter = -1
	}
	ctrl, err := ctrlplane.NewController(fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, nil, append([]ServerOption{WithPlacement(fleet), WithControlPlane(ctrl)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return ctrl, lis.Addr().String()
}

// TestSpammerThrottledWithoutCollateral is the acceptance scenario:
// one peer hammering ReportObserved is throttled with a retryable
// error and counted in FleetStats, while another peer on the same
// daemon keeps reporting untouched.
func TestSpammerThrottledWithoutCollateral(t *testing.T) {
	_, addr := hardenedFleetServer(t, ctrlplane.Config{ReportRate: 5, ReportBurst: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const half = fleetTasks / 2
	dial := func() *RemoteService {
		rs, err := DialPlacementService(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		return rs
	}
	spammer, polite := dial(), dial()
	// One attempt each: every throttle shows, and a polite report cannot
	// pass by backing off until a shared bucket refills.
	spammer.retry = retrySchedule{attempts: 1}
	polite.retry = retrySchedule{attempts: 1}
	spamLease, err := spammer.RegisterLease(ctx, "", "spammer", 0, half)
	if err != nil {
		t.Fatal(err)
	}
	politeLease, err := polite.RegisterLease(ctx, "", "polite", half, half)
	if err != nil {
		t.Fatal(err)
	}

	// Burn the burst, then hit the limit: the refusal must be the
	// retryable kind (a polite client backs off; the server does not
	// hang up).
	var throttledErr error
	for seq := uint64(1); seq <= 20 && throttledErr == nil; seq++ {
		throttledErr = spammer.ReportObserved(ctx, spamLease, seq, fleetRing(half, 1))
	}
	if throttledErr == nil || !strings.Contains(throttledErr.Error(), "rate limit") {
		t.Fatalf("spam burst: err = %v, want rate limit", throttledErr)
	}
	if !retryableError(throttledErr) {
		t.Fatalf("throttle error %v is not classified retryable", throttledErr)
	}

	// The polite peer on the same daemon is unaffected (its own bucket
	// is untouched — limits are per lease, not global).
	if err := polite.ReportObserved(ctx, politeLease, 1, fleetRing(half, 1)); err != nil {
		t.Fatalf("polite peer throttled by the spammer: %v", err)
	}

	// And the abuse shows up in the daemon's stats over the wire.
	st, err := polite.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fleet.ReportsThrottled == 0 {
		t.Fatalf("FleetStats.ReportsThrottled = %+v, want > 0", st.Fleet)
	}

	// The spammer's connection survived the refusals: backing off and
	// retrying under the same lease still works.
	time.Sleep(600 * time.Millisecond) // >2 tokens at 5/sec
	if err := spammer.ReportObserved(ctx, spamLease, 21, fleetRing(half, 1)); err != nil {
		t.Fatalf("spammer's post-backoff report: %v", err)
	}
}

// TestLeaseTokenGuardsDisplacement is the acceptance scenario: a
// client without the lease's ownership token cannot displace it, and
// the conflict is counted in FleetStats.
func TestLeaseTokenGuardsDisplacement(t *testing.T) {
	_, addr := hardenedFleetServer(t, ctrlplane.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	owner, err := DialPlacementService(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	const half = fleetTasks / 2
	lease, err := owner.RegisterLeaseToken(ctx, "", "worker", 0, half, 0x0ddc0ffee)
	if err != nil {
		t.Fatal(err)
	}

	// A hostile client naming the same identity without the token is
	// refused — with and with a wrong token.
	thief, err := DialPlacementService(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer thief.Close()
	if _, err := thief.RegisterLease(ctx, "", "worker", 0, half); err == nil || !strings.Contains(err.Error(), "lease conflict") {
		t.Fatalf("tokenless displacement: err = %v, want lease conflict", err)
	}
	wrongTok := func() error {
		_, err := thief.RegisterLeaseToken(ctx, "", "worker", 0, half, 0xbad)
		return err
	}
	if err := wrongTok(); err == nil || !strings.Contains(err.Error(), "lease conflict") {
		t.Fatalf("wrong-token displacement: err = %v, want lease conflict", err)
	} else if retryableError(err) {
		t.Fatalf("lease conflict %v classified retryable — a thief would spin on it", err)
	}

	// The owner's lease still reports fine, and re-presenting the token
	// re-registers (the reconnect path).
	if err := owner.ReportObserved(ctx, lease, 1, fleetRing(half, 1)); err != nil {
		t.Fatalf("owner's lease damaged by displacement attempts: %v", err)
	}
	if _, err := owner.RegisterLeaseToken(ctx, "", "worker", 0, half, 0x0ddc0ffee); err != nil {
		t.Fatalf("owner re-registration refused: %v", err)
	}

	st, err := owner.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fleet.LeaseConflicts != 2 {
		t.Fatalf("FleetStats.LeaseConflicts = %+v, want 2", st.Fleet)
	}
}

// TestReportCapsRefuseOversizedFrames: a frame over the per-connection
// byte cap, and a window wider than the control plane's lease bound,
// are refused before any decoding work is spent.
func TestReportCapsRefuseOversizedFrames(t *testing.T) {
	_, addr := hardenedFleetServer(t, ctrlplane.Config{MaxLeaseTasks: 8},
		WithReportCaps(256, 0, 0))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	rs, err := DialPlacementService(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	// Within both caps: a small report on a small lease works.
	small, err := rs.RegisterLease(ctx, "", "small", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.ReportObserved(ctx, small, 1, fleetRing(4, 1)); err != nil {
		t.Fatalf("within-caps report refused: %v", err)
	}

	// Over the row cap: a 16-task window against the 8-task lease bound.
	err = rs.ReportObserved(ctx, small, 2, fleetRing(16, 1))
	const wantRows = "orwlnet: server: orwlnet: observed report order 16 exceeds the 8-row cap"
	if err == nil || err.Error() != wantRows {
		t.Fatalf("over-row report: err = %v, want %q", err, wantRows)
	}

	// Over the byte cap: a dense matrix big enough to blow 256 bytes.
	dense := comm.NewMatrix(8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j {
				dense.AddSym(i, j, float64(i*8+j)+0.5)
			}
		}
	}
	err = rs.ReportObserved(ctx, small, 3, dense)
	if err == nil || !strings.Contains(err.Error(), "frame cap") {
		t.Fatalf("over-byte report: err = %v, want frame cap refusal", err)
	}
}

// TestReportByteBudgetThrottles: the per-connection bytes/sec budget
// throttles a flood with a retryable error.
func TestReportByteBudgetThrottles(t *testing.T) {
	_, addr := hardenedFleetServer(t, ctrlplane.Config{},
		WithReportCaps(0, 64, 256))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	rs, err := DialPlacementService(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	rs.retry = retrySchedule{attempts: 1} // see the first throttle, not a retry that outwaits it
	lease, err := rs.RegisterLease(ctx, "", "flood", 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	var budgetErr error
	for seq := uint64(1); seq <= 50 && budgetErr == nil; seq++ {
		budgetErr = rs.ReportObserved(ctx, lease, seq, fleetRing(16, float64(seq)))
	}
	if budgetErr == nil || !strings.Contains(budgetErr.Error(), "rate limit") {
		t.Fatalf("flood: err = %v, want byte-budget rate limit", budgetErr)
	}
	if !retryableError(budgetErr) {
		t.Fatalf("byte-budget error %v is not classified retryable", budgetErr)
	}
}
