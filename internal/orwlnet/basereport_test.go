package orwlnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/faultnet"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// Base-coded observed reports (matBaseValues): the hand-packed bytes,
// every truncation and refusal with its exact error, the merge against
// full frames, and the recovery paths — a dropped ack, a daemon
// restored without bases, a lease the daemon forgot.

// baseWindow is the golden base: order 6, four nonzeros; a full frame
// of it becomes the lease's base.
func baseWindow() *comm.Sparse {
	w := comm.NewSparse(6)
	w.Set(0, 1, 2)
	w.Set(1, 2, 3)
	w.Set(2, 0, 0.5)
	w.Set(2, 2, 4)
	return w
}

// The golden base-coded frames: lease 7, seq 6, against base seq 5
// holding four values.
var (
	// steadyFrame: every value equals the base's, one zero run.
	steadyFrame = []byte{protoVersion, 7, 6, matBaseValues, 5, 4, 4}
	// twoChangeFrame: (1,2) goes 3 → 6 and (2,2) goes 4 → 1.
	twoChangeFrame = []byte{protoVersion, 7, 6, matBaseValues, 5, 4,
		1,          // value 0 unchanged
		0x80, 0x20, // value 1: bits 3 ⊕ 6 = 0x0010000000000000, byte-reversed 0x1000
		1,                // value 2 unchanged
		0xff, 0xc0, 0x03, // value 3: bits 4 ⊕ 1 = 0x7fe0000000000000, byte-reversed 0xe07f
		0, // no value after it
	}
)

// baseRig returns a collector holding lease 7 over n tasks of fig2 at
// seq 4, and, when w is not nil, w merged as the lease's full report of
// seq 5 — its base — and drained.
func baseRig(t *testing.T, n int, w *comm.Sparse) *ctrlplane.Collector {
	t.Helper()
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine("fig2", topology.Fig2Machine()); err != nil {
		t.Fatal(err)
	}
	ctrl := fleetController(t, fleet)
	if err := ctrl.Restore(&ctrlplane.Snapshot{
		Leases:   []ctrlplane.LeaseRecord{{Lease: ctrlplane.Lease{ID: 7, Machine: "fig2", Peer: "golden", TaskCount: n}, LastSeq: 4}},
		Machines: []ctrlplane.MachineRecord{{Name: "fig2", Order: n}},
	}); err != nil {
		t.Fatal(err)
	}
	col := ctrl.Collector()
	if w != nil {
		full, err := encodeObservedReport(nil, 7, 5, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := mergeObservedReport(col, full); err != nil {
			t.Fatal(err)
		}
		col.WindowAffinity("fig2")
	}
	return col
}

// TestBaseReportGoldenBytes: the client encodes the steady window and
// the two-change window as the hand-packed frames, and the collector
// holding the base decodes them into those windows.
func TestBaseReportGoldenBytes(t *testing.T) {
	var b reportBase
	b.set(5, baseWindow())
	changed := baseWindow()
	changed.Set(1, 2, 6)
	changed.Set(2, 2, 1)
	for _, c := range []struct {
		name string
		w    *comm.Sparse
		want []byte
	}{
		{"steady", baseWindow(), steadyFrame},
		{"two changed values", changed, twoChangeFrame},
	} {
		if got, ok := encodeBaseReport(nil, 7, 6, c.w, &b); !ok || !bytes.Equal(got, c.want) {
			t.Errorf("%s: encoded % x (base-coded %v), want % x", c.name, got, ok, c.want)
		}
		col := baseRig(t, 6, baseWindow())
		if err := mergeObservedReport(col, c.want); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if diff := diffCells(c.w, col.WindowAffinity("fig2")); diff != "" {
			t.Errorf("%s: merged window differs: %s", c.name, diff)
		}
	}
}

// TestBaseReportTruncations: every prefix of the two-change frame is
// refused with its exact error and leaves the base in place.
func TestBaseReportTruncations(t *testing.T) {
	const varint = "codec: truncated or overlong varint"
	want := []string{
		"orwlnet: missing version byte", // nothing
		varint,                          // no lease id
		varint,                          // no seq
		"codec: truncated matrix mode",  // no matrix field
		varint,                          // no base seq
		varint,                          // no value count
		varint,                          // no first zero run
		varint,                          // no first word
		varint,                          // half the first word
		varint,                          // no second zero run
		varint,                          // no second word
		varint,                          // a third of the second word
		varint,                          // two thirds of it
		varint,                          // no last zero run
	}
	if len(want) != len(twoChangeFrame) {
		t.Fatalf("%d errors for %d truncation lengths", len(want), len(twoChangeFrame))
	}
	col := baseRig(t, 6, baseWindow())
	for k := range twoChangeFrame {
		if err := mergeObservedReport(col, twoChangeFrame[:k]); err == nil || err.Error() != want[k] {
			t.Errorf("truncated to %d bytes: err = %v, want %q", k, err, want[k])
		}
	}
	if w := col.WindowAffinity("fig2"); w.NNZ() != 0 {
		t.Fatalf("refused frames merged %d cells", w.NNZ())
	}
	if err := mergeObservedReport(col, twoChangeFrame); err != nil {
		t.Fatalf("the whole frame after its truncations: %v", err)
	}
}

// TestBaseReportRejections gives the exact bytes in and the exact error
// out for every way a base-coded frame is refused. None merges
// anything, and the base still applies afterwards.
func TestBaseReportRejections(t *testing.T) {
	frame := func(body ...byte) []byte { return append([]byte{protoVersion, 7, 6, matBaseValues}, body...) }
	const noBase5 = "orwlnet: unknown matrix fingerprint: the lease holds no base window of seq 5 — resend the window in full"
	cases := []struct {
		name   string
		in     []byte
		noBase bool // the lease holds no base
		want   string
	}{
		{"seq 0", []byte{protoVersion, 7, 0, matBaseValues, 5, 4, 4}, false, "orwlnet: base-coded report of seq 0, which is never deduplicated"},
		{"base seq 0", frame(0, 4, 4), false, "orwlnet: base-coded report against base seq 0"},
		{"unknown lease", []byte{protoVersion, 8, 6, matBaseValues, 5, 4, 4}, false, "ctrlplane: unknown lease 8 (expired or never registered — re-register)"},
		{"no base held", frame(5, 4, 4), true, noBase5},
		{"another base", frame(3, 4, 4), false, "orwlnet: unknown matrix fingerprint: the lease holds no base window of seq 3 — resend the window in full"},
		{"more values than the base", frame(5, 5, 5), false, "orwlnet: base-coded report claims 5 values, its base holds 4"},
		{"fewer values than the base", frame(5, 3, 3), false, "orwlnet: base-coded report claims 3 values, its base holds 4"},
		{"run past the end", frame(5, 4, 5), false, "orwlnet: base-coded zero run 5 at value 0 overruns the 4 values"},
		{"run past the end after a change", frame(5, 4, 3, 0x80, 0x20, 1), false, "orwlnet: base-coded zero run 1 at value 4 overruns the 4 values"},
		{"run wraps uint64", frame(5, 4, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), false, "orwlnet: base-coded zero run 18446744073709551615 at value 0 overruns the 4 values"},
		{"value to +0", frame(5, 4, 0, 0x40, 3), false, "orwlnet: base-coded value 0 comes out zero: a window of another pattern ships in full"},
		{"value to -0", frame(5, 4, 0, 0xc0, 0x01, 3), false, "orwlnet: base-coded value 0 comes out zero: a window of another pattern ships in full"},
	}
	for _, c := range cases {
		base := baseWindow()
		if c.noBase {
			base = nil
		}
		col := baseRig(t, 6, base)
		err := mergeObservedReport(col, c.in)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: % x: err = %v, want %q", c.name, c.in, err, c.want)
		}
		if (c.want == noBase5 || c.name == "another base") != errors.Is(err, ErrUnknownMatrix) {
			t.Errorf("%s: errors.Is(err, ErrUnknownMatrix) = %v", c.name, errors.Is(err, ErrUnknownMatrix))
		}
		if w := col.WindowAffinity("fig2"); w.NNZ() != 0 {
			t.Errorf("%s: a refused frame merged %d cells", c.name, w.NNZ())
		}
		if c.noBase {
			continue
		}
		if err := mergeObservedReport(col, steadyFrame); err != nil {
			t.Errorf("%s: the base no longer applies: %v", c.name, err)
		} else if diff := diffCells(baseWindow(), col.WindowAffinity("fig2")); diff != "" {
			t.Errorf("%s: the base changed: %s", c.name, diff)
		}
	}
	// A duplicate is acknowledged without being decoded: its body would
	// be refused, and nothing merges.
	col := baseRig(t, 6, baseWindow())
	if err := mergeObservedReport(col, []byte{protoVersion, 7, 5, matBaseValues, 5, 4, 9}); err != nil {
		t.Fatalf("duplicate: %v", err)
	}
	if w := col.WindowAffinity("fig2"); w.NNZ() != 0 {
		t.Fatalf("a duplicate merged %d cells", w.NNZ())
	}
}

// cliqueWindow is a 1,024-task window of 8-cliques: task perm[k] sits in
// clique k/8, and every ordered pair of a clique carries a value.
func cliqueWindow(perm []int, scale float64) *comm.Sparse {
	n := len(perm)
	w := comm.NewSparse(n)
	for k := 0; k < n; k += 8 {
		for _, i := range perm[k : k+8] {
			for _, j := range perm[k : k+8] {
				if i != j {
					w.Set(i, j, scale*float64(4096*(1+(i+j)%5)))
				}
			}
		}
	}
	return w
}

// TestBaseReportMergesLikeFullFrames feeds one collector a scripted
// window sequence as the client ships it — base-coded whenever the
// pattern holds — and another the same windows as full frames. Their
// drained windows are bit-identical at every step, and each window
// ships base-coded exactly when its pattern is its predecessor's.
func TestBaseReportMergesLikeFullFrames(t *testing.T) {
	const n = 1024
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	shifted := append([]int(nil), perm...)
	rand.New(rand.NewSource(3)).Shuffle(96, func(i, j int) { shifted[i], shifted[j] = shifted[j], shifted[i] })
	drifted := cliqueWindow(shifted, 1)
	drifted.ForEach(func(i, j int, v float64) {
		if (i+j)%3 == 0 {
			drifted.Set(i, j, v*1.5)
		}
	})
	vanished := drifted.Clone()
	vanished.Set(shifted[0], shifted[1], 0)
	appeared := vanished.Clone()
	appeared.Set(5, 900, 77)
	steps := []struct {
		name  string
		w     *comm.Sparse
		coded bool
		drain bool
	}{
		{"first", cliqueWindow(perm, 1), false, false},
		{"steady", cliqueWindow(perm, 1), true, true},
		{"shift", cliqueWindow(shifted, 1), false, false},
		{"steady after the shift", cliqueWindow(shifted, 1), true, true},
		{"values drift", drifted, true, true},
		{"a cell vanishes", vanished, false, false},
		{"a cell appears", appeared, false, true},
	}
	coded, full := ctrlplane.NewCollector(-1), ctrlplane.NewCollector(-1)
	codedLease, err := coded.Register("m", "p", 16, n)
	if err != nil {
		t.Fatal(err)
	}
	fullLease, err := full.Register("m", "p", 16, n)
	if err != nil {
		t.Fatal(err)
	}
	var b reportBase
	for i, s := range steps {
		seq := uint64(i + 1)
		frame, ok := encodeBaseReport(nil, codedLease.ID, seq, s.w, &b)
		if !ok {
			if frame, err = encodeObservedReport(nil, codedLease.ID, seq, s.w); err != nil {
				t.Fatal(err)
			}
		}
		if ok != s.coded {
			t.Fatalf("%s: base-coded %v, want %v", s.name, ok, s.coded)
		}
		if s.name == "steady" {
			if _, _, field, _ := getReportHeader(frame); !bytes.Equal(field, []byte{matBaseValues, 1, 0x80, 0x38, 0x80, 0x38}) || len(frame) > 32 {
				t.Fatalf("steady frame % x is not one zero run over the 7,168 values in at most 32 bytes", frame)
			}
		}
		if err := mergeObservedReport(coded, frame); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		b.set(seq, s.w)
		ref, err := encodeObservedReport(nil, fullLease.ID, seq, s.w)
		if err != nil {
			t.Fatal(err)
		}
		if err := mergeObservedReport(full, ref); err != nil {
			t.Fatalf("%s (full frame): %v", s.name, err)
		}
		if !s.drain {
			continue
		}
		if diff := diffCells(full.WindowAffinity("m"), coded.WindowAffinity("m")); diff != "" {
			t.Fatalf("%s: base-coded merge differs from the full-frame merge: %s", s.name, diff)
		}
	}
}

// reportRecorder wraps a stub's dialer and logs every observed report
// the stub writes: the connection, the seq, and whether it was
// base-coded.
type reportRecorder struct {
	mu    sync.Mutex
	conns int
	log   []sentReport
}

type sentReport struct {
	conn  int
	seq   uint64
	coded bool
}

func (r *reportRecorder) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.conns++
	return &recordingConn{Conn: c, r: r, id: r.conns}, nil
}

// sent returns the reports logged so far.
func (r *reportRecorder) sent() []sentReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sentReport(nil), r.log...)
}

type recordingConn struct {
	net.Conn
	r    *reportRecorder
	id   int
	left int // bytes of the frame being written still to come
}

// Write logs every report frame that starts in p. The client's buffered
// writer hands the connection whole small frames, several at a time,
// and large ones in chunks; a frame's header and first payload bytes
// always arrive in one write.
func (c *recordingConn) Write(p []byte) (int, error) {
	for q := p; len(q) > 0; {
		if c.left == 0 {
			if len(q) < 13 {
				break
			}
			c.left = 4 + int(binary.LittleEndian.Uint32(q))
			if q[12] == opObservedReport {
				c.log(q[13:])
			}
		}
		k := min(c.left, len(q))
		c.left, q = c.left-k, q[k:]
	}
	return c.Conn.Write(p)
}

func (c *recordingConn) log(payload []byte) {
	if _, seq, field, err := getReportHeader(payload); err == nil && len(field) > 0 {
		c.r.mu.Lock()
		c.r.log = append(c.r.log, sentReport{c.id, seq, field[0] == matBaseValues})
		c.r.mu.Unlock()
	}
}

// reportDaemon serves a fig2 control plane on lis; kill closes it and
// waits for the serve loop, so the address can be served again.
func reportDaemon(t *testing.T, lis net.Listener, snap *ctrlplane.Snapshot) (ctrl *ctrlplane.Controller, kill func()) {
	t.Helper()
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine("fig2", topology.Fig2Machine()); err != nil {
		t.Fatal(err)
	}
	ctrl = fleetController(t, fleet)
	if err := ctrl.Restore(snap); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, nil, WithPlacement(fleet), WithControlPlane(ctrl))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { srv.Serve(); close(done) }()
	var once sync.Once
	kill = func() { once.Do(func() { srv.Close(); <-done }) }
	t.Cleanup(kill)
	return ctrl, kill
}

// checkSent compares the logged reports with want.
func checkSent(t *testing.T, got, want []sentReport) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("reports sent %+v, want %+v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reports sent %+v, want %+v", got, want)
		}
	}
}

// sumWindows is what a collector holds after merging ws in order.
func sumWindows(ws ...comm.Affinity) *comm.Sparse {
	sum := comm.NewSparse(ws[0].Order())
	for _, w := range ws {
		w.ForEach(sum.Add)
	}
	return sum
}

// TestBaseReportAfterDroppedAck: the server's connection dies before
// the ack of a full frame leaves it. The retry resends that window in
// full under the same seq and is deduplicated, and the next window
// ships base-coded against it and is accepted: every window merges
// exactly once.
func TestBaseReportAfterDroppedAck(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Each server connection delivers three frames: the hello ack, the
	// lease ack and one report ack; the fourth write severs it.
	inj := faultnet.New(faultnet.Plan{SeverAfterWrites: 3})
	ctrl, _ := reportDaemon(t, inj.Listener(lis), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var rec reportRecorder
	rs, err := DialPlacementService(ctx, lis.Addr().String(), WithDialFunc(rec.dial))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	rs.retry = fastRetry
	lease, err := rs.RegisterLease(ctx, "fig2", "peer", 0, fleetTasks)
	if err != nil {
		t.Fatal(err)
	}
	ring := comm.SparseFromMatrix(fleetRing(fleetTasks, 1<<20))
	clusters := comm.SparseFromMatrix(fleetClusters(fleetTasks, 8, 1<<20))
	for seq, w := range []*comm.Sparse{ring, clusters, clusters} {
		if err := rs.ReportObserved(ctx, lease, uint64(seq+1), w); err != nil {
			t.Fatalf("report %d: %v", seq+1, err)
		}
	}
	if _, _, _, severed := inj.Counters(); severed != 1 {
		t.Fatalf("%d connections severed, want the one whose report ack was dropped", severed)
	}
	checkSent(t, rec.sent(), []sentReport{{1, 1, false}, {1, 2, false}, {2, 2, false}, {2, 3, true}})
	if reports, _, _ := ctrl.Collector().Counters(); reports != 3 {
		t.Fatalf("%d reports merged, want 3", reports)
	}
	if diff := diffCells(sumWindows(ring, clusters, clusters), ctrl.Collector().WindowAffinity("fig2")); diff != "" {
		t.Fatalf("merged window: %s", diff)
	}
}

// TestBaseReportAfterSnapshotRestore: a daemon restored from a snapshot
// keeps the lease and its last seq but no base, so the client's
// base-coded report is answered ErrUnknownMatrix and the window is
// resent in full under the same seq — and merged exactly once.
func TestBaseReportAfterSnapshotRestore(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	ctrl, kill := reportDaemon(t, lis, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var rec reportRecorder
	rs, err := DialPlacementService(ctx, addr, WithDialFunc(rec.dial))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	rs.retry = fastRetry
	lease, err := rs.RegisterLease(ctx, "fig2", "peer", 0, fleetTasks)
	if err != nil {
		t.Fatal(err)
	}
	ring := comm.SparseFromMatrix(fleetRing(fleetTasks, 1<<20))
	for seq := uint64(1); seq <= 2; seq++ {
		if err := rs.ReportObserved(ctx, lease, seq, ring); err != nil {
			t.Fatal(err)
		}
	}
	snap := ctrl.Snapshot()
	kill()
	if lis, err = net.Listen("tcp", addr); err != nil {
		t.Fatal(err)
	}
	restored, _ := reportDaemon(t, lis, snap)
	if err := rs.ReportObserved(ctx, lease, 3, ring); err != nil {
		t.Fatalf("report to the restored daemon: %v", err)
	}
	// Seq 3 may first go base-coded to the dead connection; the last two
	// reports went to the restored daemon on one new connection.
	sent := rec.sent()
	checkSent(t, sent[:2], []sentReport{{1, 1, false}, {1, 2, true}})
	conn := sent[len(sent)-1].conn
	checkSent(t, sent[len(sent)-2:], []sentReport{{conn, 3, true}, {conn, 3, false}})
	if conn == 1 {
		t.Fatalf("reports sent %+v: the restored daemon was reached on the old connection", sent)
	}
	if reports, _, _ := restored.Collector().Counters(); reports != 1 {
		t.Fatalf("the restored daemon merged %d reports, want 1", reports)
	}
	if diff := diffCells(ring, restored.Collector().WindowAffinity("fig2")); diff != "" {
		t.Fatalf("merged window: %s", diff)
	}
}

// TestBaseReportFullAfterReLease: the daemon forgets a lease (a
// registration under the same token replaced it, as after a restart
// without snapshot); the stub drops the base with it, and the first
// report under the new lease ships in full.
func TestBaseReportFullAfterReLease(t *testing.T) {
	_, ctrl, addr := startCtrlFleetServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var rec reportRecorder
	rs, err := DialPlacementService(ctx, addr, WithDialFunc(rec.dial))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	first, err := rs.RegisterLeaseToken(ctx, "fig2", "peer", 0, fleetTasks, 0xbeef)
	if err != nil {
		t.Fatal(err)
	}
	ring := comm.SparseFromMatrix(fleetRing(fleetTasks, 1<<20))
	for seq := uint64(1); seq <= 2; seq++ {
		if err := rs.ReportObserved(ctx, first, seq, ring); err != nil {
			t.Fatal(err)
		}
	}
	second, err := rs.RegisterLeaseToken(ctx, "fig2", "peer", 0, fleetTasks, 0xbeef)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.ReportObserved(ctx, first, 3, ring); !errors.Is(err, ctrlplane.ErrUnknownLease) {
		t.Fatalf("report under the replaced lease: err = %v, want ErrUnknownLease", err)
	}
	rs.baseMu.Lock()
	kept := rs.base
	rs.baseMu.Unlock()
	if kept != nil {
		t.Fatalf("the replaced lease kept its base (seq %d)", kept.seq)
	}
	for seq := uint64(3); seq <= 4; seq++ {
		if err := rs.ReportObserved(ctx, second, seq, ring); err != nil {
			t.Fatal(err)
		}
	}
	checkSent(t, rec.sent(), []sentReport{{1, 1, false}, {1, 2, true}, {1, 3, true}, {1, 3, false}, {1, 4, true}})
	if diff := diffCells(sumWindows(ring, ring, ring, ring), ctrl.Collector().WindowAffinity("fig2")); diff != "" {
		t.Fatalf("merged window: %s", diff)
	}
}

// TestBaseReportConcurrentReports: goroutines report two leases through
// one stub at once, so reports race for the stub's base and for each
// lease's base and spare in the collector. Every report succeeds, and
// each lease's merged window is its window times the reports the
// collector merged for it (a reordered seq is dropped as a duplicate).
func TestBaseReportConcurrentReports(t *testing.T) {
	_, ctrl, addr := startCtrlFleetServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rs, err := DialPlacementService(ctx, addr, WithPoolSize(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	w := comm.SparseFromMatrix(fleetClusters(fleetTasks, 8, 3))
	var leases [2]uint64
	for i := range leases {
		if leases[i], err = rs.RegisterLease(ctx, "fig2", "peer-"+string(rune('a'+i)), i*fleetTasks, fleetTasks); err != nil {
			t.Fatal(err)
		}
	}
	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= rounds; i++ {
				if err := rs.ReportObserved(ctx, leases[g%2], uint64(g*rounds+i), w); err != nil {
					t.Errorf("worker %d report %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	merged := ctrl.Collector().WindowAffinity("fig2")
	reports, _, _ := ctrl.Collector().Counters()
	total := 0
	for i := range leases {
		k := int(merged.At(i*fleetTasks, i*fleetTasks+8) / w.At(0, 8))
		w.ForEach(func(r, c int, v float64) {
			if got := merged.At(i*fleetTasks+r, i*fleetTasks+c); got != float64(k)*v {
				t.Fatalf("lease %d cell (%d,%d) = %g, want %d × %g", i, r, c, got, k, v)
			}
		})
		total += k
	}
	if uint64(total) != reports || total < 2 {
		t.Fatalf("merged %d windows, the collector counted %d reports", total, reports)
	}
}

// TestWideLeaseReportsMergeOnce: a lease wider than 2,896 tasks, the
// order of the densest matrix a frame carries, reports over the wire
// under a raised lease bound — a full frame, then a base-coded one,
// each merged once at the lease's offset.
func TestWideLeaseReportsMergeOnce(t *testing.T) {
	const offset, width = 100, 4096
	perm := rand.New(rand.NewSource(41)).Perm(width)
	first, second := cliqueWindow(perm, 1), cliqueWindow(perm, 3)
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine("fig2", topology.Fig2Machine()); err != nil {
		t.Fatal(err)
	}
	ctrl, err := ctrlplane.NewController(fleet, ctrlplane.Config{MaxLeaseTasks: 8192, StaleAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, nil, WithPlacement(fleet), WithControlPlane(ctrl))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var rec reportRecorder
	rs, err := DialPlacementService(ctx, lis.Addr().String(), WithDialFunc(rec.dial))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	lease, err := rs.RegisterLease(ctx, "fig2", "wide", offset, width)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.ReportObserved(ctx, lease, 1, first); err != nil {
		t.Fatal(err)
	}
	if err := rs.ReportObserved(ctx, lease, 2, second); err != nil {
		t.Fatal(err)
	}
	checkSent(t, rec.sent(), []sentReport{{1, 1, false}, {1, 2, true}})
	if reports, _, _ := ctrl.Collector().Counters(); reports != 2 {
		t.Fatalf("merged %d reports, want 2", reports)
	}
	want := comm.NewSparse(offset + width)
	for _, w := range []*comm.Sparse{first, second} {
		w.ForEach(func(i, j int, v float64) { want.Add(offset+i, offset+j, v) })
	}
	if diff := diffCells(want, ctrl.Collector().WindowAffinity("fig2")); diff != "" {
		t.Fatalf("merged window: %s", diff)
	}
}

// countingConn counts the bytes a client writes.
type countingConn struct {
	net.Conn
	wrote *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.wrote.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// TestOverCapMatrixRefusedBeforeSend: a full order-1449 matrix holds
// more cells than codec.MaxMatrixCells, so the stub refuses it as a
// place request and as an observed report with the decoder's error
// before a byte of it is written, and the lease's next window still
// merges.
func TestOverCapMatrixRefusedBeforeSend(t *testing.T) {
	const n = 1449
	full := comm.NewMatrix(n)
	for i := 0; i < n; i++ {
		row := full.RowView(i)
		for j := range row {
			row[j] = 1
		}
	}
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
	srv, err := NewServer(lis, nil, WithPlacement(fleet), WithControlPlane(ctrl))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wrote atomic.Int64
	rs, err := DialPlacementService(ctx, lis.Addr().String(), WithDialFunc(func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		return countingConn{c, &wrote}, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	lease, err := rs.RegisterLease(ctx, "fig2", "full", 0, n)
	if err != nil {
		t.Fatal(err)
	}
	before := wrote.Load()
	want := fmt.Sprintf("codec: order-%d sparse body claims %d cells, over the %d a body may hold", n, n*n, codec.MaxMatrixCells)
	var ce *codec.CellsError
	if _, err := rs.Place(ctx, &placement.PlaceRequest{Machine: "fig2", Matrix: full}); !errors.As(err, &ce) || err.Error() != want {
		t.Errorf("place: err = %v, want %q", err, want)
	}
	if err := rs.ReportObserved(ctx, lease, 1, comm.SparseFromMatrix(full)); !errors.As(err, &ce) || err.Error() != want {
		t.Errorf("report: err = %v, want %q", err, want)
	}
	if sent := wrote.Load() - before; sent != 0 {
		t.Errorf("the refusals wrote %d bytes", sent)
	}
	next := comm.NewSparse(n)
	next.Set(0, n-1, 5)
	if err := rs.ReportObserved(ctx, lease, 2, next); err != nil {
		t.Fatal(err)
	}
	if reports, _, _ := ctrl.Collector().Counters(); reports != 1 {
		t.Fatalf("merged %d reports, want 1", reports)
	}
}
