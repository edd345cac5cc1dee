package orwlnet

import (
	"context"
	"net"
	"testing"
	"time"

	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/placement"
)

// Schema v6 delta-push tests: the codec round trip, the delta-vs-full
// chooser, the server pusher's eligibility tracking, the client's
// apply/resync paths against a scripted daemon, and the cross-version
// matrix (a v5 subscriber against a v6 daemon and the reverse).

// deltaAssignment builds a fully-populated assignment (compute,
// control and core slices) deterministic in seed.
func deltaAssignment(n, seed int) *placement.Assignment {
	a := &placement.Assignment{
		Strategy:  placement.TreeMatch,
		ComputePU: make([]int, n),
		ControlPU: make([]int, n),
		CoreOf:    make([]int, n),
	}
	for i := 0; i < n; i++ {
		a.ComputePU[i] = (i*7 + seed) % 16
		a.ControlPU[i] = -1
		a.CoreOf[i] = (i + seed) % 8
	}
	return a
}

// deltaShift clones a and moves the named tasks to new PUs/cores.
func deltaShift(a *placement.Assignment, tasks ...int) *placement.Assignment {
	b := a.Clone()
	for _, t := range tasks {
		b.ComputePU[t] = (b.ComputePU[t] + 1) % 16
		b.CoreOf[t] = (b.CoreOf[t] + 1) % 8
	}
	return b
}

func sameAssignment(t *testing.T, got, want *placement.Assignment) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("assignment presence: got %v, want %v", got != nil, want != nil)
	}
	if got.Strategy != want.Strategy || got.Unbound != want.Unbound ||
		got.Oversubscribed != want.Oversubscribed || got.Mode != want.Mode {
		t.Fatalf("assignment header differs: %+v vs %+v", got, want)
	}
	for name, pair := range map[string][2][]int{
		"ComputePU": {got.ComputePU, want.ComputePU},
		"ControlPU": {got.ControlPU, want.ControlPU},
		"CoreOf":    {got.CoreOf, want.CoreOf},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s length %d, want %d", name, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s[%d] = %d, want %d", name, i, pair[0][i], pair[1][i])
			}
		}
	}
}

func TestRemapDeltaRoundTrip(t *testing.T) {
	prev := deltaAssignment(32, 0)
	next := deltaShift(prev, 3, 9, 20)
	ev := &ctrlplane.Remap{
		Machine:            "fig2",
		Epoch:              5,
		Drift:              0.25,
		Assignment:         next,
		MovedTasks:         []int{20, 3, 9}, // unsorted on purpose
		RemappedPartitions: []int{2, 0},
	}
	d, err := buildRemapDelta(ev)
	if err != nil {
		t.Fatal(err)
	}
	frame := encodeRemapDelta(nil, d)
	full, d2, err := decodeRemapFrameAny(frame)
	if err != nil {
		t.Fatal(err)
	}
	if full != nil || d2 == nil {
		t.Fatalf("delta frame decoded as full=%v delta=%v", full != nil, d2 != nil)
	}
	if d2.Machine != "fig2" || d2.Epoch != 5 || d2.Drift != 0.25 || d2.Order != 32 {
		t.Fatalf("delta header = %+v", d2)
	}
	if len(d2.Tasks) != 3 || d2.Tasks[0] != 3 || d2.Tasks[1] != 9 || d2.Tasks[2] != 20 {
		t.Fatalf("moved tasks = %v, want sorted {3,9,20}", d2.Tasks)
	}
	if len(d2.Parts) != 2 || d2.Parts[0] != 0 || d2.Parts[1] != 2 {
		t.Fatalf("partitions = %v, want sorted {0,2}", d2.Parts)
	}
	a, err := applyRemapDelta(prev, d2)
	if err != nil {
		t.Fatal(err)
	}
	sameAssignment(t, a, next)
	// prev is untouched by the apply.
	if prev.ComputePU[3] == next.ComputePU[3] {
		t.Fatal("shift did not move task 3 (test bug)")
	}
	rm := d2.remap(a)
	if rm.Epoch != 5 || !rm.Delta || len(rm.MovedTasks) != 3 || len(rm.RemappedPartitions) != 2 {
		t.Fatalf("delta remap event = %+v", rm)
	}
	// The strict decoder refuses the delta form.
	if _, err := decodeRemapFrame(frame); err == nil {
		t.Fatal("decodeRemapFrame accepted a delta frame")
	}
}

func TestEncodeRemapFrameV6Chooser(t *testing.T) {
	prev := deltaAssignment(64, 0)
	next := deltaShift(prev, 5)
	ev := &ctrlplane.Remap{Machine: "m", Epoch: 2, Assignment: next, MovedTasks: []int{5}}

	frame, isDelta := encodeRemapFrame(nil, ev, true)
	if !isDelta {
		t.Fatal("one moved task out of 64 did not ship as a delta")
	}
	if _, d, err := decodeRemapFrameAny(frame); err != nil || d == nil {
		t.Fatalf("chooser's delta frame decode = (%v, %v)", d, err)
	}
	fullFrame, isFull := encodeRemapFrame(nil, ev, false)
	if isFull {
		t.Fatal("allowDelta=false still produced a delta")
	}
	if gotEv, _, err := decodeRemapFrameAny(fullFrame); err != nil || gotEv == nil {
		t.Fatalf("full frame decode = (%v, %v)", gotEv, err)
	} else {
		sameAssignment(t, gotEv.Assignment, next)
	}
	if len(frame) >= len(fullFrame) {
		t.Fatalf("delta frame is %d bytes, full is %d — delta should be smaller", len(frame), len(fullFrame))
	}

	// When every task moved the delta cannot be smaller (it carries the
	// same values plus the task-id gaps): the chooser falls back to full.
	all := make([]int, 64)
	for i := range all {
		all[i] = i
	}
	ev2 := &ctrlplane.Remap{Machine: "m", Epoch: 2, Assignment: deltaShift(prev, all...), MovedTasks: all}
	if _, isDelta := encodeRemapFrame(nil, ev2, true); isDelta {
		t.Fatal("all-tasks-moved encode shipped a delta, want full")
	}

	// No moved-task set: not delta-eligible regardless of allowDelta.
	ev3 := &ctrlplane.Remap{Machine: "m", Epoch: 2, Assignment: next}
	if _, isDelta := encodeRemapFrame(nil, ev3, true); isDelta {
		t.Fatal("nil moved set encode shipped a delta, want full")
	}
}

// TestWatchPusherDeltaEligibility drives watchPusher directly over a
// net.Pipe and checks the per-subscriber epoch tracking: only an event
// exactly one epoch past the last delivered one (that knows its moved
// tasks) ships as a delta; gaps and unknown-diff events fall back to
// full frames.
func TestWatchPusherDeltaEligibility(t *testing.T) {
	srvC, cliC := net.Pipe()
	defer cliC.Close()
	s := &Server{}
	st := &connState{conn: srvC}
	st.inflight.Add(1)
	s.wg.Add(1)
	events := make(chan ctrlplane.Remap, 1)
	go s.watchPusher(st, 7, 1, 1, events)

	read := func() (*ctrlplane.Remap, *remapDelta) {
		t.Helper()
		if err := cliC.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		msg, err := readMessage(cliC)
		if err != nil {
			t.Fatal(err)
		}
		if msg.callID != 7 || msg.op != statusOK {
			t.Fatalf("pushed frame callID=%d op=%d", msg.callID, msg.op)
		}
		ev, d, err := decodeRemapFrameAny(msg.payload)
		if err != nil {
			t.Fatal(err)
		}
		return ev, d
	}

	base := deltaAssignment(32, 0)

	// Epoch 2 on a subscriber holding epoch 1, moved set known: delta.
	next := deltaShift(base, 4)
	events <- ctrlplane.Remap{Machine: "m", Epoch: 2, Assignment: next, MovedTasks: []int{4}}
	if ev, d := read(); d == nil {
		t.Fatalf("adjacent-epoch push was a full frame (epoch %d)", ev.Epoch)
	} else if d.Epoch != 2 || len(d.Tasks) != 1 || d.Tasks[0] != 4 {
		t.Fatalf("delta = %+v", d)
	}

	// Epoch 4 (the pusher last delivered 2 — a coalesced push skipped
	// 3): the gap forces a full frame even though the diff is known.
	gap := deltaShift(next, 9)
	events <- ctrlplane.Remap{Machine: "m", Epoch: 4, Assignment: gap, MovedTasks: []int{9}}
	if ev, d := read(); d != nil {
		t.Fatal("epoch-gap push shipped as a delta")
	} else if ev.Epoch != 4 {
		t.Fatalf("full frame epoch = %d, want 4", ev.Epoch)
	}

	// Epoch 5, adjacent but with no moved-task set: full frame.
	events <- ctrlplane.Remap{Machine: "m", Epoch: 5, Assignment: deltaShift(gap, 1)}
	if ev, d := read(); d != nil {
		t.Fatal("unknown-diff push shipped as a delta")
	} else if ev.Epoch != 5 {
		t.Fatalf("full frame epoch = %d, want 5", ev.Epoch)
	}

	close(events)
	s.wg.Wait()
	if got := s.deltaPushes.Load(); got != 1 {
		t.Fatalf("deltaPushes = %d, want 1", got)
	}
	if got := s.fullPushes.Load(); got != 2 {
		t.Fatalf("fullPushes = %d, want 2", got)
	}
}

// --- scripted daemon: the client-side delta paths --------------------

type fakeSub struct {
	conn   net.Conn
	callID uint64
	since  uint64
}

// startFakeDeltaServer runs a minimal daemon: it answers
// the hello handshake, surfaces each watch subscription on the
// returned channel, and leaves every frame push to the test.
func startFakeDeltaServer(t *testing.T) (string, <-chan fakeSub) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	subs := make(chan fakeSub, 4)
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					m, err := readMessage(conn)
					if err != nil {
						return
					}
					switch m.op {
					case opHello:
						_ = writeMessage(conn, message{callID: m.callID, op: statusOK, payload: []byte{protoVersion}})
					case opWatchRemaps:
						_, since, err := decodeWatchRequest(m.payload)
						if err != nil {
							return
						}
						subs <- fakeSub{conn: conn, callID: m.callID, since: since}
					default:
						_ = writeMessage(conn, message{callID: m.callID, op: statusError, payload: []byte("unexpected op")})
					}
				}
			}(conn)
		}
	}()
	return lis.Addr().String(), subs
}

func pushFull(t *testing.T, sub fakeSub, ev *ctrlplane.Remap) {
	t.Helper()
	payload, _ := encodeRemapFrame(nil, ev, false)
	if err := writeMessage(sub.conn, message{callID: sub.callID, op: statusOK, payload: payload}); err != nil {
		t.Fatal(err)
	}
}

func pushDelta(t *testing.T, sub fakeSub, ev *ctrlplane.Remap) {
	t.Helper()
	d, err := buildRemapDelta(ev)
	if err != nil {
		t.Fatal(err)
	}
	payload := encodeRemapDelta(nil, d)
	if err := writeMessage(sub.conn, message{callID: sub.callID, op: statusOK, payload: payload}); err != nil {
		t.Fatal(err)
	}
}

// watchAgainstFake dials the fake daemon, opens the subscription and
// returns the event channel plus the daemon-side subscription handle.
func watchAgainstFake(t *testing.T, ctx context.Context, addr string, subs <-chan fakeSub, ack *ctrlplane.Remap) (<-chan Remap, fakeSub) {
	t.Helper()
	rs, err := DialPlacementService(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rs.Close() })
	type watchResult struct {
		ch  <-chan Remap
		err error
	}
	res := make(chan watchResult, 1)
	go func() {
		ch, err := rs.WatchRemaps(ctx, "m")
		res <- watchResult{ch, err}
	}()
	var sub fakeSub
	select {
	case sub = <-subs:
	case <-ctx.Done():
		t.Fatal("no subscription reached the fake daemon")
	}
	pushFull(t, sub, ack)
	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.ch, sub
}

func recvRemap(t *testing.T, ctx context.Context, ch <-chan Remap) Remap {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("watch channel closed")
		}
		return ev
	case <-ctx.Done():
		t.Fatal("no remap before timeout")
	}
	panic("unreachable")
}

// TestWatchDeltaApply: the client applies consecutive delta frames
// onto its cached assignment and delivers fully-reconstructed remaps.
func TestWatchDeltaApply(t *testing.T) {
	addr, subs := startFakeDeltaServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	a1 := deltaAssignment(32, 0)
	ch, sub := watchAgainstFake(t, ctx, addr, subs, &ctrlplane.Remap{Machine: "m", Epoch: 1, Assignment: a1})
	if ev := recvRemap(t, ctx, ch); ev.Epoch != 1 {
		t.Fatalf("ack epoch = %d, want 1", ev.Epoch)
	}

	a2 := deltaShift(a1, 2, 5)
	pushDelta(t, sub, &ctrlplane.Remap{Machine: "m", Epoch: 2, Drift: 0.1, Assignment: a2, MovedTasks: []int{2, 5}})
	ev2 := recvRemap(t, ctx, ch)
	if ev2.Epoch != 2 || !ev2.Delta {
		t.Fatalf("second event = epoch %d delta %v, want delta epoch 2", ev2.Epoch, ev2.Delta)
	}
	if len(ev2.MovedTasks) != 2 || ev2.MovedTasks[0] != 2 || ev2.MovedTasks[1] != 5 {
		t.Fatalf("moved tasks = %v", ev2.MovedTasks)
	}
	sameAssignment(t, ev2.Assignment, a2)

	// A second delta chains onto the reconstructed cache, not the ack.
	a3 := deltaShift(a2, 7)
	pushDelta(t, sub, &ctrlplane.Remap{Machine: "m", Epoch: 3, Assignment: a3, MovedTasks: []int{7}})
	ev3 := recvRemap(t, ctx, ch)
	if ev3.Epoch != 3 || !ev3.Delta {
		t.Fatalf("third event = epoch %d delta %v", ev3.Epoch, ev3.Delta)
	}
	sameAssignment(t, ev3.Assignment, a3)
}

// TestWatchDeltaGapResync: a delta the client cannot build on (epoch 3
// after epoch 1 — the epoch 2 frame was dropped) forces a full-frame
// resubscribe, converging on exactly the assignment the full path
// would have delivered.
func TestWatchDeltaGapResync(t *testing.T) {
	addr, subs := startFakeDeltaServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	a1 := deltaAssignment(32, 1)
	ch, sub := watchAgainstFake(t, ctx, addr, subs, &ctrlplane.Remap{Machine: "m", Epoch: 1, Assignment: a1})
	if ev := recvRemap(t, ctx, ch); ev.Epoch != 1 {
		t.Fatalf("ack epoch = %d, want 1", ev.Epoch)
	}

	a3 := deltaShift(a1, 4, 11)
	pushDelta(t, sub, &ctrlplane.Remap{Machine: "m", Epoch: 3, Assignment: a3, MovedTasks: []int{4, 11}})

	// The gap makes the client resubscribe on a fresh connection with
	// its last applied epoch; the fake answers with the full frame.
	var sub2 fakeSub
	select {
	case sub2 = <-subs:
	case <-ctx.Done():
		t.Fatal("client did not resubscribe after the epoch gap")
	}
	if sub2.since != 1 {
		t.Fatalf("resubscribe since-epoch = %d, want 1", sub2.since)
	}
	pushFull(t, sub2, &ctrlplane.Remap{Machine: "m", Epoch: 3, Assignment: a3})
	ev := recvRemap(t, ctx, ch)
	if ev.Epoch != 3 || ev.Delta {
		t.Fatalf("post-resync event = epoch %d delta %v, want full epoch 3", ev.Epoch, ev.Delta)
	}
	sameAssignment(t, ev.Assignment, a3)
}

// TestWatchGarbledDeltaResync: an undecodable pushed frame is decode
// doubt, not a crash — the client resubscribes and the full ack brings
// it to the same assignment.
func TestWatchGarbledDeltaResync(t *testing.T) {
	addr, subs := startFakeDeltaServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	a1 := deltaAssignment(32, 2)
	ch, sub := watchAgainstFake(t, ctx, addr, subs, &ctrlplane.Remap{Machine: "m", Epoch: 1, Assignment: a1})
	if ev := recvRemap(t, ctx, ch); ev.Epoch != 1 {
		t.Fatalf("ack epoch = %d, want 1", ev.Epoch)
	}

	// A garbled delta frame: valid version and kind, hostile body.
	garbled := []byte{protoVersion, remapKindDelta, 0xff, 0xff, 0xff, 0xff}
	if err := writeMessage(sub.conn, message{callID: sub.callID, op: statusOK, payload: garbled}); err != nil {
		t.Fatal(err)
	}

	var sub2 fakeSub
	select {
	case sub2 = <-subs:
	case <-ctx.Done():
		t.Fatal("client did not resubscribe after the garbled frame")
	}
	if sub2.since != 1 {
		t.Fatalf("resubscribe since-epoch = %d, want 1", sub2.since)
	}
	a2 := deltaShift(a1, 6)
	pushFull(t, sub2, &ctrlplane.Remap{Machine: "m", Epoch: 2, Assignment: a2})
	ev := recvRemap(t, ctx, ch)
	if ev.Epoch != 2 {
		t.Fatalf("post-resync epoch = %d, want 2", ev.Epoch)
	}
	sameAssignment(t, ev.Assignment, a2)
}

// --- end to end ------------------------------------------------------

// runFleetShift drives one lease through the two-phase traffic shift
// and returns the epoch 1 and epoch 2 events the watcher received.
func runFleetShift(t *testing.T, ctx context.Context, rs *RemoteService, ctrl *ctrlplane.Controller) (Remap, Remap) {
	t.Helper()
	lease, err := rs.RegisterLease(ctx, "fig2", "xver", 0, fleetTasks)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := rs.WatchRemaps(ctx, "fig2")
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.ReportObserved(ctx, lease, 1, fleetRing(fleetTasks, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if rep, err := ctrl.Epoch("fig2"); err != nil || rep == nil || !rep.Adopted {
		t.Fatalf("priming epoch = (%+v, %v), want adoption", rep, err)
	}
	ev1 := recvRemap(t, ctx, ch)
	if err := rs.ReportObserved(ctx, lease, 2, fleetClusters(fleetTasks, 4, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if rep, err := ctrl.Epoch("fig2"); err != nil || rep == nil || !rep.Adopted {
		t.Fatalf("shift epoch = (%+v, %v), want adoption", rep, err)
	}
	ev2 := recvRemap(t, ctx, ch)
	return ev1, ev2
}

// TestDeltaStatsOverWire: the stats payload carries the push counters
// end to end. A frame is counted before it is written, so stats read
// after the watcher received both epochs count both frames.
func TestDeltaStatsOverWire(t *testing.T) {
	_, ctrl, addr := startCtrlFleetServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	rs, err := DialPlacementService(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	ev1, ev2 := runFleetShift(t, ctx, rs, ctrl)
	if ev1.Epoch != 1 || ev2.Epoch != 2 {
		t.Fatalf("epochs = %d, %d, want 1, 2", ev1.Epoch, ev2.Epoch)
	}
	stats, err := rs.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fleet.DeltaPushes+stats.Fleet.FullPushes != 2 {
		t.Fatalf("push counters = delta %d + full %d, want the 2 frames the watcher received",
			stats.Fleet.DeltaPushes, stats.Fleet.FullPushes)
	}
}
