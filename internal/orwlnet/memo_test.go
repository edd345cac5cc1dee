package orwlnet

import (
	"bytes"
	"context"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// servePlacement serves fleet on a fresh loopback port until the test
// ends (or the returned stop runs) and returns its address.
func servePlacement(t *testing.T, fleet *placement.MultiService) (string, func()) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, nil, WithPlacement(fleet))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return lis.Addr().String(), func() { srv.Close() }
}

// memoFleet is a two-machine placement fleet; restarted swaps the
// topology behind the default machine's name, so the same request maps
// differently.
func memoFleet(t *testing.T, restarted bool) *placement.MultiService {
	t.Helper()
	m := topology.TinyFlat()
	if restarted {
		m = topology.TinyHT()
	}
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine("m", m); err != nil {
		t.Fatal(err)
	}
	if err := fleet.AddMachine("n", topology.TinyHT()); err != nil {
		t.Fatal(err)
	}
	return fleet
}

// TestPlaceMemoDecodesEachAnswer: one matrix fingerprint answered with
// different assignments — another strategy, other options, another
// machine, and a restarted daemon that maps the same request
// differently — decodes to each answer's own values, and a repeat of an
// answer decodes to the memoised value.
func TestPlaceMemoDecodesEachAnswer(t *testing.T) {
	var addr atomic.Value
	first, stop := servePlacement(t, memoFleet(t, false))
	addr.Store(first)
	dial := func(ctx context.Context, network, _ string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, network, addr.Load().(string))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	rs, err := DialPlacementService(ctx, "memo-daemon", WithDialFunc(dial))
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	ring := comm.Ring(4, 1<<16, true)
	base := placement.PlaceRequest{Machine: "m", Strategy: placement.TreeMatch, Matrix: ring}
	variant := func(edit func(*placement.PlaceRequest)) *placement.PlaceRequest {
		r := base
		edit(&r)
		return &r
	}
	reqs := []*placement.PlaceRequest{
		&base,
		variant(func(r *placement.PlaceRequest) { r.Strategy = "compact" }),
		variant(func(r *placement.PlaceRequest) { r.Options.ControlThreads = true }),
		variant(func(r *placement.PlaceRequest) { r.Machine = "n" }),
	}
	check := func(twin *placement.MultiService, req *placement.PlaceRequest) *placement.Assignment {
		t.Helper()
		got, err := rs.Place(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Place(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		w := want.Assignment.Clone()
		w.Partitions = nil // not on the wire
		if !reflect.DeepEqual(got.Assignment, w) {
			t.Fatalf("%s/%s/%+v decoded to\n %+v, want\n %+v", req.Machine, req.Strategy, req.Options, got.Assignment, w)
		}
		return got.Assignment
	}

	twin := memoFleet(t, false)
	answers := make([]*placement.Assignment, len(reqs))
	for i, req := range reqs {
		answers[i] = check(twin, req)
		if i > 0 && reflect.DeepEqual(answers[i], answers[0]) {
			t.Fatalf("variant %d answers like the base request: the case tests nothing", i)
		}
		// The base request again replaces the variant's memo, and its
		// repeat decodes to that memo.
		if again := check(twin, &base); again != check(twin, &base) {
			t.Fatal("a repeated answer was decoded afresh instead of returning the memo")
		}
	}

	// The daemon restarts on a machine of the same name: the stub's
	// fingerprint reference misses, the body is resent, and the new
	// mapping must not be mistaken for the memo.
	stop()
	second, _ := servePlacement(t, memoFleet(t, true))
	addr.Store(second)
	if got := check(memoFleet(t, true), &base); reflect.DeepEqual(got, answers[0]) {
		t.Fatal("the restarted daemon answers like the first: the case tests nothing")
	}
}

// memoResponse is the encoded response whose assignment the decode
// tests memoise.
func memoResponse() (*placement.PlaceResponse, []byte) {
	resp := &placement.PlaceResponse{
		Machine: "m",
		Assignment: &placement.Assignment{
			Strategy:  placement.TreeMatch,
			ComputePU: []int{0, 2, 4, 6, 1, 3, 5, 7},
			ControlPU: []int{-1, -1, -1, -1, -1, -1, -1, -1},
			CoreOf:    []int{0, 1, 2, 3, 0, 1, 2, 3},
		},
	}
	return resp, encodePlaceResponse(nil, resp, nil)
}

// memoOf decodes data plainly and memoises the result as the client
// does.
func memoOf(tb testing.TB, data []byte) *assignmentMemo {
	tb.Helper()
	back, enc, err := decodePlaceResponse(data, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return &assignmentMemo{a: back.Assignment, enc: bytes.Clone(enc)}
}

// TestPlaceMemoRefusesGarbledAnswers: every truncation of a response
// whose prefix matches the memo fails like the plain decode, and every
// one-byte corruption decodes exactly as the plain decoder does — never
// to the shared memo unless the values really are the memo's.
func TestPlaceMemoRefusesGarbledAnswers(t *testing.T) {
	_, full := memoResponse()
	memo := memoOf(t, full)
	if got, _, err := decodePlaceResponse(full, memo); err != nil || got.Assignment != memo.a {
		t.Fatalf("the memoised answer decoded to (%p, %v), want the memo %p", got.Assignment, err, memo.a)
	}
	for cut := 0; cut < len(full); cut++ {
		if resp, _, err := decodePlaceResponse(full[:cut], memo); err == nil {
			t.Fatalf("a response cut at %d of %d bytes decoded (memo returned: %v)", cut, len(full), resp.Assignment == memo.a)
		}
	}
	for i := range full {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			garbled := bytes.Clone(full)
			garbled[i] ^= flip
			samePlainAndMemo(t, garbled, memo)
		}
	}
}

// samePlainAndMemo checks the decode of data against memo's stored
// bytes with the plain decode: both fail, or both succeed with equal
// values and equal assignment bytes — and the memo itself comes back
// only for a value-equal answer.
func samePlainAndMemo(t *testing.T, data []byte, memo *assignmentMemo) {
	t.Helper()
	plain, penc, perr := decodePlaceResponse(data, nil)
	got, menc, merr := decodePlaceResponse(data, memo)
	if (perr == nil) != (merr == nil) {
		t.Fatalf("%x: plain decode err %v, memo decode err %v", data, perr, merr)
	}
	if perr != nil {
		return
	}
	// The encodings compare the other fields bit for bit (a NaN cost
	// is not DeepEqual to itself).
	if !reflect.DeepEqual(plain.Assignment, got.Assignment) || !bytes.Equal(penc, menc) ||
		!bytes.Equal(encodePlaceResponse(nil, plain, nil), encodePlaceResponse(nil, got, nil)) {
		t.Fatalf("%x: memo decode %+v differs from plain decode %+v", data, got.Assignment, plain.Assignment)
	}
	if got.Assignment == memo.a && !reflect.DeepEqual(plain.Assignment, memo.a) {
		t.Fatalf("%x: the memo came back for a different assignment", data)
	}
}

// FuzzPlaceResponseDecode: for any bytes, the decode against the
// memo's stored bytes and the plain decode return equal values or both
// fail.
func FuzzPlaceResponseDecode(f *testing.F) {
	resp, full := memoResponse()
	f.Add(full)
	resp.Assignment.ComputePU[3] = 9
	f.Add(encodePlaceResponse(nil, resp, nil))
	resp.Assignment = nil
	f.Add(encodePlaceResponse(nil, resp, nil))
	f.Add(full[:len(full)-3])
	memo := memoOf(f, full)
	f.Fuzz(func(t *testing.T, data []byte) {
		samePlainAndMemo(t, data, memo)
	})
}

// TestFPSetMemoBound: the memos of the known-fingerprint LRU retain at
// most knownFingerprints × memoMaxBytes, however many fingerprints and
// however large the assignments the client sees.
func TestFPSetMemoBound(t *testing.T) {
	sized := func(ints int) (*placement.Assignment, []byte) {
		a := &placement.Assignment{Strategy: "s", ComputePU: make([]int, ints)}
		return a, codec.PutAssignment(nil, a)
	}
	memoBytes := func(a *placement.Assignment, enc []byte) int { // what a memo retains past its header
		return 8*(len(a.ComputePU)+len(a.ControlPU)+len(a.CoreOf)) + len(a.Strategy) + len(enc)
	}
	ints := 0
	for memoBytes(sized(ints+1)) <= memoMaxBytes {
		ints++
	}
	fit, fitEnc := sized(ints)
	over, overEnc := sized(ints + 1)
	s := newFPSet(knownFingerprints)
	const fps = 3 * knownFingerprints
	for fp := uint64(1); fp <= fps; fp++ {
		e := s.remember(fp)
		e.keep(fit, fitEnc)
		if fp%2 == 0 {
			e.keep(over, overEnc)
			if e.memo.Load().a != fit {
				t.Fatalf("fingerprint %d: an oversized assignment replaced the memo", fp)
			}
		}
	}
	entries, retained := 0, 0
	for fp := uint64(1); fp <= fps; fp++ {
		s.mu.Lock()
		e, ok := s.lru.Get(fp)
		s.mu.Unlock()
		if !ok {
			continue
		}
		entries++
		if m := e.memo.Load(); m != nil {
			retained += memoBytes(m.a, m.enc)
		}
	}
	if entries != s.lru.Len() || entries > knownFingerprints || retained > knownFingerprints*memoMaxBytes {
		t.Fatalf("%d entries (Len %d) retain %d memo bytes, want ≤ %d entries and ≤ %d bytes",
			entries, s.lru.Len(), retained, knownFingerprints, knownFingerprints*memoMaxBytes)
	}
}
