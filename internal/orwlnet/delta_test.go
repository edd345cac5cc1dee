package orwlnet

import (
	"context"
	"net"
	"testing"
	"time"

	"orwlplace/internal/codec"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/placement"
)

// Remap push tests: the delta round trip, the frame rule, every decoder
// refusal, the server pusher's per-subscriber epoch tracking, and the
// client's fold and resync paths against a scripted daemon.

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
		MovedTasks:         []int{3, 9, 20},
		RemappedPartitions: []int{0, 2},
	}
	f, err := decodeRemapFrame(encodeRemapFrame(nil, ev, true))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Delta || f.Machine != "fig2" || f.Epoch != 5 || f.Drift != 0.25 || f.order != 32 {
		t.Fatalf("delta header = %+v", f)
	}
	if len(f.MovedTasks) != 3 || f.MovedTasks[0] != 3 || f.MovedTasks[1] != 9 || f.MovedTasks[2] != 20 {
		t.Fatalf("moved tasks = %v, want {3,9,20}", f.MovedTasks)
	}
	if len(f.RemappedPartitions) != 2 || f.RemappedPartitions[0] != 0 || f.RemappedPartitions[1] != 2 {
		t.Fatalf("partitions = %v, want {0,2}", f.RemappedPartitions)
	}
	if n := f.Assignment.Entities(); n != 3 {
		t.Fatalf("delta carries %d placements, want the 3 moved tasks'", n)
	}
	rm, err := f.apply(prev, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameAssignment(t, rm.Assignment, next)
	// prev is untouched by the apply.
	if prev.ComputePU[3] == next.ComputePU[3] {
		t.Fatal("shift did not move task 3 (test bug)")
	}
	if rm.Epoch != 5 || !rm.Delta || len(rm.MovedTasks) != 3 || len(rm.RemappedPartitions) != 2 {
		t.Fatalf("delta remap event = %+v", rm)
	}
	// A delta folds only onto the epoch before it.
	if _, err := f.apply(prev, 3); err == nil || err.Error() != "orwlnet: delta onto epoch 4, the subscriber holds epoch 3" {
		t.Fatalf("apply onto epoch 3: err = %v", err)
	}
}

// TestEncodeRemapFrameV6Chooser pins the frame rule: an event that
// knows its moved tasks and binds ships as a delta to a subscriber
// holding the previous epoch, however many tasks moved; a nil moved
// set, an unbound assignment or any other subscriber gets the complete
// frame.
func TestEncodeRemapFrameV6Chooser(t *testing.T) {
	prev := deltaAssignment(64, 0)
	all := make([]int, 64)
	for i := range all {
		all[i] = i
	}
	unbound := &placement.Assignment{Strategy: placement.None, Unbound: true}
	for _, c := range []struct {
		name  string
		ev    *ctrlplane.Remap
		onto  bool
		delta bool
	}{
		{"one moved task", &ctrlplane.Remap{Machine: "m", Epoch: 2, Assignment: deltaShift(prev, 5), MovedTasks: []int{5}}, true, true},
		{"every task moved", &ctrlplane.Remap{Machine: "m", Epoch: 2, Assignment: deltaShift(prev, all...), MovedTasks: all}, true, true},
		{"none moved", &ctrlplane.Remap{Machine: "m", Epoch: 2, Assignment: prev, MovedTasks: []int{}}, true, true},
		{"subscriber not on epoch-1", &ctrlplane.Remap{Machine: "m", Epoch: 2, Assignment: deltaShift(prev, 5), MovedTasks: []int{5}}, false, false},
		{"nil moved set", &ctrlplane.Remap{Machine: "m", Epoch: 2, Assignment: deltaShift(prev, 5)}, true, false},
		{"unbound assignment", &ctrlplane.Remap{Machine: "m", Epoch: 2, Assignment: unbound, MovedTasks: []int{}}, true, false},
	} {
		frame := encodeRemapFrame(nil, c.ev, c.onto)
		f, err := decodeRemapFrame(frame)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if f.Delta != c.delta {
			t.Fatalf("%s: shipped delta=%v, want %v", c.name, f.Delta, c.delta)
		}
		rm, err := f.apply(prev, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.ev.Assignment.Unbound {
			if !rm.Assignment.Unbound || rm.Assignment.Entities() != 0 {
				t.Fatalf("%s: decoded %+v", c.name, rm.Assignment)
			}
			continue
		}
		sameAssignment(t, rm.Assignment, c.ev.Assignment)
	}
}

// TestRemapFrameRejections: every refusal of the remap decoder, for
// both kinds, with its exact error. Each frame is a good one with one
// field spoiled.
func TestRemapFrameRejections(t *testing.T) {
	head := func(kind byte, epoch, order byte, lists ...byte) []byte {
		return append([]byte{protoVersion, kind, 1, 0, 'm', epoch, 0, order}, lists...)
	}
	asg := func(compute, control, core []int) []byte {
		return codec.PutAssignment(nil, &placement.Assignment{Strategy: "t", ComputePU: compute, ControlPU: control, CoreOf: core})
	}
	cat := func(a, b []byte) []byte { return append(append([]byte(nil), a...), b...) }
	four := []int{0, 1, 2, 3}
	unbound := codec.PutAssignment(nil, &placement.Assignment{Strategy: "none", Unbound: true})
	for _, c := range []struct {
		name string
		in   []byte
		want string
	}{
		{"no kind byte", []byte{protoVersion}, "orwlnet: remap frame without a kind byte"},
		{"unknown kind", []byte{protoVersion, 2}, "orwlnet: unknown remap frame kind 2"},
		{"order out of range", []byte{protoVersion, 0, 0, 0, 1, 0, 0x81, 0x80, 0x80, 0x01}, "orwlnet: remap order 2097153 out of range"},
		{"more partitions than the order", head(1, 2, 4, 5), "orwlnet: remap frame claims 5 partitions in order 4"},
		{"partition repeated", head(1, 2, 4, 2, 1, 0), "orwlnet: partition 0 out of order or range in order 4"},
		{"moved task at the order", cat(head(1, 2, 4, 0, 1, 5), asg([]int{0}, nil, nil)), "orwlnet: moved task 4 out of order or range in order 4"},
		{"moved task past the order after a gap", head(1, 2, 4, 0, 2, 1, 4), "orwlnet: moved task 4 out of order or range in order 4"},
		{"complete: lists moved tasks", cat(head(0, 2, 4, 0, 1, 1), asg(four, nil, nil)), "orwlnet: complete remap frame lists 0 partitions and 1 moved tasks"},
		{"complete: epoch without an assignment", append(head(0, 2, 0, 0, 0), 0), "orwlnet: remap epoch 2 without an assignment"},
		{"complete: order without an assignment", append(head(0, 0, 4, 0, 0), 0), "orwlnet: remap frame of order 4 without an assignment"},
		{"complete: fewer tasks than the order", cat(head(0, 2, 4, 0, 0), asg([]int{0, 1, 2}, nil, nil)), "orwlnet: remap assignment places 3 tasks, the frame 4"},
		{"complete: negative compute PU", cat(head(0, 2, 4, 0, 0), asg([]int{0, -7, 2, 3}, nil, nil)), "orwlnet: compute PU -7 out of wire range"},
		{"complete: compute PU past the bound", cat(head(0, 2, 4, 0, 0), asg([]int{0, 1, maxRemapPU + 1, 3}, nil, nil)), "orwlnet: compute PU 1048577 out of wire range"},
		{"complete: control PU below -1", cat(head(0, 2, 4, 0, 0), asg(four, []int{-1, -2, 0, 0}, nil)), "orwlnet: control PU -2 out of wire range"},
		{"complete: ragged control PUs", cat(head(0, 2, 4, 0, 0), asg(four, []int{-1, -1}, nil)), "orwlnet: remap assignment holds 2 control PUs for 4 tasks"},
		{"complete: ragged cores", cat(head(0, 2, 4, 0, 0), asg(four, nil, []int{0, 0, 0, 0, 0})), "orwlnet: remap assignment holds 5 cores for 4 tasks"},
		{"complete: negative core", cat(head(0, 2, 4, 0, 0), asg(four, nil, []int{0, -1, 0, 0})), "orwlnet: core -1 out of wire range"},
		{"delta: epoch 0", cat(head(1, 0, 4, 0, 1, 2), asg([]int{1}, nil, nil)), "orwlnet: delta frame with epoch 0"},
		{"delta: no assignment", append(head(1, 2, 4, 0, 1, 2), 0), "orwlnet: delta frame without a bound assignment"},
		{"delta: unbound", cat(head(1, 2, 4, 0, 0), unbound), "orwlnet: delta frame without a bound assignment"},
		{"delta: more placements than moved tasks", cat(head(1, 2, 4, 0, 1, 2), asg([]int{1, 2}, nil, nil)), "orwlnet: remap assignment places 2 tasks, the frame 1"},
		{"delta: negative compute PU", cat(head(1, 2, 4, 0, 1, 2), asg([]int{-7}, nil, nil)), "orwlnet: compute PU -7 out of wire range"},
		{"delta: compute PU past the bound", cat(head(1, 2, 4, 0, 1, 2), asg([]int{maxRemapPU + 1}, nil, nil)), "orwlnet: compute PU 1048577 out of wire range"},
		{"delta: control PU below -1", cat(head(1, 2, 4, 0, 1, 2), asg([]int{1}, []int{-2}, nil)), "orwlnet: control PU -2 out of wire range"},
		{"delta: ragged control PUs", cat(head(1, 2, 4, 0, 2, 1, 1), asg([]int{1, 2}, []int{-1}, nil)), "orwlnet: remap assignment holds 1 control PUs for 2 tasks"},
		{"delta: ragged cores", cat(head(1, 2, 4, 0, 2, 1, 1), asg([]int{1, 2}, nil, []int{0, 0, 0})), "orwlnet: remap assignment holds 3 cores for 2 tasks"},
	} {
		if _, err := decodeRemapFrame(c.in); err == nil || err.Error() != c.want {
			t.Errorf("%s: % x: err = %v, want %q", c.name, c.in, err, c.want)
		}
	}
}

// TestWatchPusherDeltaEligibility drives watchPusher directly over a
// net.Pipe and checks the per-subscriber epoch tracking: only an event
// exactly one epoch past the last delivered one (that knows its moved
// tasks) ships as a delta; gaps and unknown-diff events get complete
// frames.
func TestWatchPusherDeltaEligibility(t *testing.T) {
	srvC, cliC := net.Pipe()
	defer cliC.Close()
	s := &Server{}
	st := &connState{conn: srvC}
	st.inflight.Add(1)
	s.wg.Add(1)
	events := make(chan ctrlplane.Remap, 1)
	go s.watchPusher(st, 7, 1, 1, events)

	read := func() *remapFrame {
		t.Helper()
		if err := cliC.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		msg, err := readMessage(cliC, nil)
		if err != nil {
			t.Fatal(err)
		}
		if msg.callID != 7 || msg.op != statusOK {
			t.Fatalf("pushed frame callID=%d op=%d", msg.callID, msg.op)
		}
		f, err := decodeRemapFrame(msg.payload)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	base := deltaAssignment(32, 0)

	// Epoch 2 on a subscriber holding epoch 1, moved set known: delta.
	next := deltaShift(base, 4)
	events <- ctrlplane.Remap{Machine: "m", Epoch: 2, Assignment: next, MovedTasks: []int{4}}
	if f := read(); !f.Delta {
		t.Fatalf("adjacent-epoch push was a complete frame (epoch %d)", f.Epoch)
	} else if f.Epoch != 2 || len(f.MovedTasks) != 1 || f.MovedTasks[0] != 4 {
		t.Fatalf("delta = %+v", f)
	}

	// Epoch 4 (the pusher last delivered 2 — a coalesced push skipped
	// 3): the gap forces a complete frame even though the diff is known.
	gap := deltaShift(next, 9)
	events <- ctrlplane.Remap{Machine: "m", Epoch: 4, Assignment: gap, MovedTasks: []int{9}}
	if f := read(); f.Delta {
		t.Fatal("epoch-gap push shipped as a delta")
	} else if f.Epoch != 4 {
		t.Fatalf("complete frame epoch = %d, want 4", f.Epoch)
	}

	// Epoch 5, adjacent but with no moved-task set: complete frame.
	events <- ctrlplane.Remap{Machine: "m", Epoch: 5, Assignment: deltaShift(gap, 1)}
	if f := read(); f.Delta {
		t.Fatal("unknown-diff push shipped as a delta")
	} else if f.Epoch != 5 {
		t.Fatalf("complete frame epoch = %d, want 5", f.Epoch)
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
					m, err := readMessage(conn, nil)
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

// push writes ev's remap frame: a delta onto ev.Epoch-1 when onto is
// set and ev can ship as one, else the complete frame.
func push(t *testing.T, sub fakeSub, ev *ctrlplane.Remap, onto bool) {
	t.Helper()
	payload := encodeRemapFrame(nil, ev, onto)
	if err := writeMessage(sub.conn, message{callID: sub.callID, op: statusOK, payload: payload}); err != nil {
		t.Fatal(err)
	}
}

func pushFull(t *testing.T, sub fakeSub, ev *ctrlplane.Remap) {
	t.Helper()
	push(t, sub, ev, false)
}

func pushDelta(t *testing.T, sub fakeSub, ev *ctrlplane.Remap) {
	t.Helper()
	push(t, sub, ev, true)
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
// after epoch 1 — the epoch 2 frame was dropped) forces a resubscribe
// for a complete frame, converging on exactly the assignment the
// complete frame would have delivered.
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
	// its last applied epoch; the fake answers with the complete frame.
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
		t.Fatalf("post-resync event = epoch %d delta %v, want complete epoch 3", ev.Epoch, ev.Delta)
	}
	sameAssignment(t, ev.Assignment, a3)
}

// TestWatchGarbledDeltaResync: an undecodable pushed frame is decode
// doubt, not a crash — the client resubscribes and the complete ack
// brings it to the same assignment.
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
