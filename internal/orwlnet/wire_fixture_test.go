package orwlnet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"net"
	"os"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/orwl"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// The wire fixture suite: for every opcode a golden request and a
// golden response frame, and for every rejection path the exact bytes
// in and the exact error out, all in protocol 8. Every frame uses call
// id 7.
var wireGoldens = map[string]string{
	"await/req":             "110000000700000000000000040100000000000000",
	"await/resp":            "09000000070000000000000000",
	"hello/req":             "0b0000000700000000000000090008",
	"hello/resp":            "0a00000007000000000000000008",
	"insert/req":            "1000000007000000000000000304006772696401",
	"insert/resp":           "110000000700000000000000000100000000000000",
	"lease/req":             "1c00000007000000000000000e080400666967320500616c7068610004effd02",
	"lease/resp":            "0a00000007000000000000000001",
	"place-body/req":        "3b00000007000000000000000a080400666967320900747265656d617463680400000000000000010204040101c0e0030401c0e0030401c0e0030001c0e003",
	"place-fingerprint/req": "2e00000007000000000000000a080400666967320900747265656d6174636804000000000000000103d3bd961e1e3d5db304",
	"place/resp":            "5e0000000700000000000000000804006669673201000000000000294000000000000090400300000000000000010000000000000001000000000000009210000000000000010900747265656d617463680201050004080c0502010a0e0500020406",
	"push-delta/resp":       "2d000000070000000000000000080104006669673204bfd003100900747265656d61746368000002010002030502030201",
	"push-full/resp":        "46000000070000000000000000080004006669673204bfd003010900747265656d6174636800001100020a0608040c0e10121416181a1c1e0011000004020402060608080a0a0c0c0e0e",
	"read/req":              "110000000700000000000000050100000000000000",
	"read/resp":             "190000000700000000000000006f72776c000000000000000000000000",
	"release-reinsert/req":  "110000000700000000000000080100000000000000",
	"release-reinsert/resp": "09000000070000000000000000",
	"release/req":           "110000000700000000000000070100000000000000",
	"release/resp":          "09000000070000000000000000",
	"report-dense/req":      "9500000007000000000000000f080102010400000000000000555555555555d53f000000000000d03f9a9999999999c93f555555555555c53f922449922449c23f000000000000c03f1cc7711cc771bc3f9a9999999999b93f46175d74d145b73f555555555555b53f143bb1133bb1b33f922449922449b23f111111111111b13f000000000000b03f1e1e1e1e1e1eae3f1cc7711cc771ac3f",
	"report-sparse/req":     "2300000007000000000000000f0801010204040101c0e0030401c0e0030401c0e0030001c0e003",
	"report/resp":           "09000000070000000000000000",
	"scale/req":             "170000000700000000000000010400677269641000000000000000",
	"scale/resp":            "09000000070000000000000000",
	"size/req":              "0f000000070000000000000002040067726964",
	"size/resp":             "110000000700000000000000001000000000000000",
	"stats/req":             "0900000007000000000000000c",
	"stats/resp":            "1701000007000000000000000008040066696732cefaedfe000000002a0000000000000028000000000000000200000000000000020000000000000002000000000000000900747265656d6174636804006e6f6e650200000000000000040066696732060074696e7968740c00000000000000030000000000000002000000000000000100000000000000e17a14ae47e1da3f01000000000000000800000000000000e803000000000000d00700000000000005000000000000001e0000000000000001000000000000000300000000000000640000000000000002000000000000000400000000000000010000000000000002000000000000000300000000000000010000000000000003000000000000000100000000000000",
	"topology/req":          "0900000007000000000000000b",
	"topology/resp":         "480800000700000000000000007b226174747273223a7b224e616d65223a2254696e79466c6174222c224f53223a22222c224b65726e656c223a22222c22536f636b65744d6f64656c223a22222c22436c6f636b4d487a223a323030302c2248797065727468726561646564223a66616c73652c22496e746572636f6e6e6563744e616d65223a22222c22496e746572636f6e6e65637447427073223a382c224c6f63616c4d656d47427073223a32302c224c314c6174656e63794379636c6573223a342c224c324c6174656e63794379636c6573223a31322c224c334c6174656e63794379636c6573223a34302c224452414d4c6174656e63794379636c6573223a3230302c2252656d6f74654e554d41466163746f72223a312e382c2243726f737347726f7570466163746f72223a322e367d2c22726f6f74223a7b2274797065223a224d616368696e65222c226d656d6f7279223a383538393933343539322c226368696c6472656e223a5b7b2274797065223a224e554d414e6f6465222c226d656d6f7279223a343239343936373239362c226368696c6472656e223a5b7b2274797065223a22536f636b6574222c226368696c6472656e223a5b7b2274797065223a224c33222c2263616368655f73697a65223a343139343330342c226368696c6472656e223a5b7b2274797065223a224c32222c2263616368655f73697a65223a3236323134342c226368696c6472656e223a5b7b2274797065223a224c31222c2263616368655f73697a65223a33323736382c226368696c6472656e223a5b7b2274797065223a22436f7265222c226368696c6472656e223a5b7b2274797065223a225055227d5d7d5d7d5d7d2c7b2274797065223a224c32222c226f735f696e646578223a312c2263616368655f73697a65223a3236323134342c226368696c6472656e223a5b7b2274797065223a224c31222c226f735f696e646578223a312c2263616368655f73697a65223a33323736382c226368696c6472656e223a5b7b2274797065223a22436f7265222c226f735f696e646578223a312c226368696c6472656e223a5b7b2274797065223a225055222c226f735f696e646578223a317d5d7d5d7d5d7d2c7b2274797065223a224c32222c226f735f696e646578223a322c2263616368655f73697a65223a3236323134342c226368696c6472656e223a5b7b2274797065223a224c31222c226f735f696e646578223a322c2263616368655f73697a65223a33323736382c226368696c6472656e223a5b7b2274797065223a22436f7265222c226f735f696e646578223a322c226368696c6472656e223a5b7b2274797065223a225055222c226f735f696e646578223a327d5d7d5d7d5d7d2c7b2274797065223a224c32222c226f735f696e646578223a332c2263616368655f73697a65223a3236323134342c226368696c6472656e223a5b7b2274797065223a224c31222c226f735f696e646578223a332c2263616368655f73697a65223a33323736382c226368696c6472656e223a5b7b2274797065223a22436f7265222c226f735f696e646578223a332c226368696c6472656e223a5b7b2274797065223a225055222c226f735f696e646578223a337d5d7d5d7d5d7d5d7d5d7d5d7d2c7b2274797065223a224e554d414e6f6465222c226f735f696e646578223a312c226d656d6f7279223a343239343936373239362c226368696c6472656e223a5b7b2274797065223a22536f636b6574222c226f735f696e646578223a312c226368696c6472656e223a5b7b2274797065223a224c33222c226f735f696e646578223a312c2263616368655f73697a65223a343139343330342c226368696c6472656e223a5b7b2274797065223a224c32222c226f735f696e646578223a342c2263616368655f73697a65223a3236323134342c226368696c6472656e223a5b7b2274797065223a224c31222c226f735f696e646578223a342c2263616368655f73697a65223a33323736382c226368696c6472656e223a5b7b2274797065223a22436f7265222c226f735f696e646578223a342c226368696c6472656e223a5b7b2274797065223a225055222c226f735f696e646578223a347d5d7d5d7d5d7d2c7b2274797065223a224c32222c226f735f696e646578223a352c2263616368655f73697a65223a3236323134342c226368696c6472656e223a5b7b2274797065223a224c31222c226f735f696e646578223a352c2263616368655f73697a65223a33323736382c226368696c6472656e223a5b7b2274797065223a22436f7265222c226f735f696e646578223a352c226368696c6472656e223a5b7b2274797065223a225055222c226f735f696e646578223a357d5d7d5d7d5d7d2c7b2274797065223a224c32222c226f735f696e646578223a362c2263616368655f73697a65223a3236323134342c226368696c6472656e223a5b7b2274797065223a224c31222c226f735f696e646578223a362c2263616368655f73697a65223a33323736382c226368696c6472656e223a5b7b2274797065223a22436f7265222c226f735f696e646578223a362c226368696c6472656e223a5b7b2274797065223a225055222c226f735f696e646578223a367d5d7d5d7d5d7d2c7b2274797065223a224c32222c226f735f696e646578223a372c2263616368655f73697a65223a3236323134342c226368696c6472656e223a5b7b2274797065223a224c31222c226f735f696e646578223a372c2263616368655f73697a65223a33323736382c226368696c6472656e223a5b7b2274797065223a22436f7265222c226f735f696e646578223a372c226368696c6472656e223a5b7b2274797065223a225055222c226f735f696e646578223a377d5d7d5d7d5d7d5d7d5d7d5d7d5d7d7d",
	"watch-ack-empty/resp":  "1000000007000000000000000008000000000000",
	"watch-ack/resp":        "46000000070000000000000000080004006669673203bfc003010900747265656d6174636800001100020406080a0c0e10121416181a1c1e0011000002020404060608080a0a0c0c0e0e",
	"watch/req":             "110000000700000000000000100804006669673200",
	"write/req":             "1500000007000000000000000601000000000000006f72776c",
	"write/resp":            "09000000070000000000000000",
}

func fixtureRing(n int, v float64) *comm.Matrix {
	m := comm.NewMatrix(n)
	for i := 0; i < n; i++ {
		m.Set(i, (i+1)%n, v)
	}
	return m
}

func fixtureDense4() *comm.Matrix {
	m := comm.NewMatrix(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m.Set(i, j, 1/float64(4*i+j+3))
		}
	}
	return m
}

func fixtureReq() *placement.PlaceRequest {
	return &placement.PlaceRequest{
		Machine: "fig2", Strategy: "treematch", Entities: 4,
		Options: placement.Options{ControlThreads: true},
		Matrix:  fixtureRing(4, 65536),
	}
}

func fixtureResp() *placement.PlaceResponse {
	return &placement.PlaceResponse{
		Machine: "fig2", CacheHit: true, Cost: 12.5, CrossNUMAVolume: 1024,
		Cache: placement.CacheStats{Hits: 3, Misses: 1, Entries: 1}, ElapsedNS: 4242,
		Assignment: &placement.Assignment{
			Strategy: "treematch", Oversubscribed: true, Mode: 1,
			ComputePU: []int{0, 2, 4, 6}, ControlPU: []int{1, -1, 5, 7}, CoreOf: []int{0, 1, 2, 3},
		},
	}
}

func fixtureStats() placement.ServiceStats {
	return placement.ServiceStats{
		TopologyName: "fig2", TopologySignature: 0xfeedface,
		Strategies: []string{"treematch", "none"}, Machines: []string{"fig2", "tinyht"},
		Places: 42, Cache: placement.CacheStats{Hits: 40, Misses: 2, Entries: 2},
		Adaptive: placement.AdaptiveStats{Epochs: 12, DriftEpochs: 3, Remaps: 2, Rejected: 1, LastDrift: 0.42},
		Net: placement.NetStats{InFlight: 1, PeakInFlight: 8, BytesIn: 1000, BytesOut: 2000, SparseMatrices: 5,
			FingerprintHits: 30, FingerprintMisses: 1, MatrixCacheEntries: 3},
		Fleet: placement.FleetStats{ReportsReceived: 100, PeersTracked: 2, RemapsPushed: 4, StalePeersEvicted: 1,
			Watchers: 2, ReportsThrottled: 3, LeaseConflicts: 1, DeltaPushes: 3, FullPushes: 1},
	}
}

func fixtureRemap(epoch uint64, drift float64, swap bool) *ctrlplane.Remap {
	a := &placement.Assignment{Strategy: "treematch", ComputePU: make([]int, 16), CoreOf: make([]int, 16)}
	for i := range a.ComputePU {
		a.ComputePU[i] = i
		a.CoreOf[i] = i / 2
	}
	ev := &ctrlplane.Remap{Machine: "fig2", Epoch: epoch, Drift: drift, Assignment: a}
	if swap {
		a.ComputePU[2], a.ComputePU[5] = 5, 2
		a.CoreOf[2], a.CoreOf[5] = 2, 1
		ev.MovedTasks = []int{2, 5}
		ev.RemappedPartitions = []int{0}
	}
	return ev
}

// wireFrame is how today's encoders build one golden frame.
type wireFrame struct {
	op      byte // the opcode the frame requests or answers
	code    byte // the frame's own op/status byte
	payload func() []byte
}

func wireFrames() map[string]wireFrame {
	must := func(b []byte, err error) []byte {
		if err != nil {
			panic(err)
		}
		return b
	}
	fixed := func(b []byte) func() []byte { return func() []byte { return b } }
	remap := func(ev *ctrlplane.Remap, allowDelta bool) func() []byte {
		return func() []byte { b, _ := encodeRemapFrame(nil, ev, allowDelta); return b }
	}
	return map[string]wireFrame{
		"hello/req":             {opHello, opHello, fixed([]byte{0, protoVersion})},
		"hello/resp":            {opHello, statusOK, fixed([]byte{protoVersion})},
		"scale/req":             {opScale, opScale, fixed(codec.PutUint64(codec.PutString(nil, "grid"), 16))},
		"scale/resp":            {opScale, statusOK, fixed(nil)},
		"size/req":              {opSize, opSize, fixed(codec.PutString(nil, "grid"))},
		"size/resp":             {opSize, statusOK, fixed(codec.PutUint64(nil, 16))},
		"insert/req":            {opInsert, opInsert, fixed(append(codec.PutString(nil, "grid"), byte(orwl.Write)))},
		"insert/resp":           {opInsert, statusOK, fixed(codec.PutUint64(nil, 1))},
		"await/req":             {opAwait, opAwait, fixed(codec.PutUint64(nil, 1))},
		"await/resp":            {opAwait, statusOK, fixed(nil)},
		"write/req":             {opWrite, opWrite, fixed(append(codec.PutUint64(nil, 1), "orwl"...))},
		"write/resp":            {opWrite, statusOK, fixed(nil)},
		"read/req":              {opRead, opRead, fixed(codec.PutUint64(nil, 1))},
		"read/resp":             {opRead, statusOK, fixed(append([]byte("orwl"), make([]byte, 12)...))},
		"release-reinsert/req":  {opReleaseReinsert, opReleaseReinsert, fixed(codec.PutUint64(nil, 1))},
		"release-reinsert/resp": {opReleaseReinsert, statusOK, fixed(nil)},
		"release/req":           {opRelease, opRelease, fixed(codec.PutUint64(nil, 1))},
		"release/resp":          {opRelease, statusOK, fixed(nil)},
		"place-body/req":        {opPlaceCompute, opPlaceCompute, func() []byte { return encodeReq(fixtureReq(), false) }},
		"place-fingerprint/req": {opPlaceCompute, opPlaceCompute, func() []byte { return encodeReq(fixtureReq(), true) }},
		"place/resp":            {opPlaceCompute, statusOK, func() []byte { return encodePlaceResponse(nil, fixtureResp()) }},
		"topology/req":          {opTopology, opTopology, fixed(nil)},
		"topology/resp": {opTopology, statusOK, func() []byte {
			top, err := topology.ByName("tinyflat")
			if err != nil {
				panic(err)
			}
			return must(top.MarshalJSON())
		}},
		"stats/req":  {opPlaceStats, opPlaceStats, fixed(nil)},
		"stats/resp": {opPlaceStats, statusOK, func() []byte { return encodeServiceStats(nil, fixtureStats()) }},
		"lease/req": {opFleetLease, opFleetLease, func() []byte {
			return must(encodeFleetLeaseRequest(nil, "fig2", "alpha", 0, 4, 0xbeef))
		}},
		"lease/resp": {opFleetLease, statusOK, fixed(encodeFleetLeaseResponse(nil, 1))},
		"report-sparse/req": {opObservedReport, opObservedReport, func() []byte {
			return must(encodeObservedReport(nil, 1, 1, fixtureRing(4, 65536)))
		}},
		"report-dense/req": {opObservedReport, opObservedReport, func() []byte {
			return must(encodeObservedReport(nil, 1, 2, fixtureDense4()))
		}},
		"report/resp":          {opObservedReport, statusOK, fixed(nil)},
		"watch/req":            {opWatchRemaps, opWatchRemaps, func() []byte { return must(encodeWatchRequest(nil, "fig2", 0)) }},
		"watch-ack-empty/resp": {opWatchRemaps, statusOK, remap(nil, false)},
		"watch-ack/resp":       {opWatchRemaps, statusOK, remap(fixtureRemap(3, 0.5, false), false)},
		"push-full/resp":       {opWatchRemaps, statusOK, remap(fixtureRemap(4, 0.75, true), false)},
		"push-delta/resp":      {opWatchRemaps, statusOK, remap(fixtureRemap(4, 0.75, true), true)},
	}
}

func encodeFrame(code byte, payload []byte) []byte {
	var b bytes.Buffer
	if err := writeMessage(&b, message{callID: 7, op: code, payload: payload}); err != nil {
		panic(err)
	}
	return b.Bytes()
}

func goldenFrame(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := hex.DecodeString(wireGoldens[name])
	if err != nil || len(raw) == 0 {
		t.Fatalf("golden %s: %v", name, err)
	}
	return raw
}

func goldenPayload(t *testing.T, name string) []byte {
	t.Helper()
	m, err := readMessage(bytes.NewReader(goldenFrame(t, name)), nil)
	if err != nil {
		t.Fatalf("golden %s: %v", name, err)
	}
	return m.payload
}

// TestWireGoldenFrames: today's encoders build every golden frame byte
// for byte.
func TestWireGoldenFrames(t *testing.T) {
	frames := wireFrames()
	for name, want := range wireGoldens {
		f, ok := frames[name]
		if !ok {
			t.Errorf("%s: golden without a frame builder", name)
			continue
		}
		if got := hex.EncodeToString(encodeFrame(f.code, f.payload())); got != want {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
	for name := range frames {
		if _, ok := wireGoldens[name]; !ok {
			t.Errorf("%s: frame builder without a golden", name)
		}
	}
}

// wireDecoders decode a golden payload and re-encode what they decoded;
// the result must be the golden again. A decoder that errors on a
// payload of another version byte is one of the versioned decoders
// TestCrossVersionRequests and its siblings use.
func wireDecoders() map[string]func([]byte) ([]byte, error) {
	ring := fixtureRing(4, 65536)
	seen := func() *matrixCache {
		mc := newMatrixCache(4)
		mc.remember(comm.Fingerprint(ring), ring)
		return mc
	}
	placeReq := func(fpOnly bool) func([]byte) ([]byte, error) {
		return func(p []byte) ([]byte, error) {
			req, err := decodePlaceRequest(p, seen())
			if err != nil {
				return nil, err
			}
			return encodeReq(req, fpOnly), nil
		}
	}
	report := func(p []byte) ([]byte, error) {
		lease, seq, delta, err := decodeObservedReport(p, 0, nil)
		if err != nil {
			return nil, err
		}
		return encodeObservedReport(nil, lease, seq, delta)
	}
	remap := func(p []byte) ([]byte, error) {
		ev, d, err := decodeRemapFrameAny(p)
		if err != nil {
			return nil, err
		}
		if d != nil {
			return encodeRemapDelta(nil, d), nil
		}
		b, _ := encodeRemapFrame(nil, ev, false)
		return b, nil
	}
	return map[string]func([]byte) ([]byte, error){
		"place-body/req":        placeReq(false),
		"place-fingerprint/req": placeReq(true),
		"place/resp": func(p []byte) ([]byte, error) {
			resp, _, err := decodePlaceResponse(p, nil)
			if err != nil {
				return nil, err
			}
			return encodePlaceResponse(nil, resp), nil
		},
		"stats/resp": func(p []byte) ([]byte, error) {
			st, err := decodeServiceStats(p)
			return encodeServiceStats(nil, st), err
		},
		"lease/req": func(p []byte) ([]byte, error) {
			machine, peer, base, count, token, err := decodeFleetLeaseRequest(p)
			if err != nil {
				return nil, err
			}
			return encodeFleetLeaseRequest(nil, machine, peer, base, count, token)
		},
		"lease/resp": func(p []byte) ([]byte, error) {
			id, err := decodeFleetLeaseResponse(p)
			return encodeFleetLeaseResponse(nil, id), err
		},
		"report-sparse/req": report,
		"report-dense/req":  report,
		"watch/req": func(p []byte) ([]byte, error) {
			machine, since, err := decodeWatchRequest(p)
			if err != nil {
				return nil, err
			}
			return encodeWatchRequest(nil, machine, since)
		},
		"watch-ack-empty/resp": remap,
		"watch-ack/resp":       remap,
		"push-full/resp":       remap,
		"push-delta/resp":      remap,
	}
}

// TestWireGoldenDecode: today's decoders read every golden payload, and
// what they read re-encodes to the same bytes.
func TestWireGoldenDecode(t *testing.T) {
	for name, dec := range wireDecoders() {
		want := goldenPayload(t, name)
		got, err := dec(want)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: re-encodes to\n%x\nwant\n%x", name, got, want)
		}
	}
}

// startFixtureServer serves what the goldens address: the location
// "grid", a fleet whose default machine is tinyflat, and a control plane
// over fig2.
func startFixtureServer(t *testing.T, opts ...ServerOption) (*Server, string) {
	t.Helper()
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine("tinyflat", topology.TinyFlat()); err != nil {
		t.Fatal(err)
	}
	if err := fleet.AddMachine("fig2", topology.Fig2Machine()); err != nil {
		t.Fatal(err)
	}
	ctrl := fleetController(t, fleet)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lis, locations(t, "grid"), append([]ServerOption{WithPlacement(fleet), WithControlPlane(ctrl)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return srv, lis.Addr().String()
}

func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	t.Cleanup(func() { conn.Close() })
	return conn
}

// exchange writes one raw frame and reads the answer.
func exchange(t *testing.T, conn net.Conn, frame []byte) message {
	t.Helper()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	m, err := readMessage(conn, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// withLeaseID rewrites the lease-id field of a golden frame — the
// uvarint at payload offset off, 1 in every golden — to id, keeping
// every other payload byte.
func withLeaseID(t *testing.T, frame []byte, off int, id uint64) []byte {
	t.Helper()
	m, err := readMessage(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	golden, rest, err := codec.GetUvarint(m.payload[off:])
	if err != nil || golden != 1 {
		t.Fatalf("golden lease id at payload offset %d = %d (%v), want 1", off, golden, err)
	}
	p := codec.PutUvarint(append([]byte(nil), m.payload[:off]...), id)
	return encodeFrame(m.op, append(p, rest...))
}

// TestWireGoldenExchange: a live server answers the golden requests
// with the golden responses, wherever the answer does not depend on
// timing or history (placement responses carry latencies; stats carry
// byte counters). Lease ids are drawn per collector incarnation, so the
// id the live lease/resp grants is substituted at the lease-id field of
// lease/resp and of the report requests that follow it.
func TestWireGoldenExchange(t *testing.T) {
	_, addr := startFixtureServer(t)
	conn := rawConn(t, addr)
	var leaseID uint64
	frame := func(name string) []byte {
		f := goldenFrame(t, name)
		switch name {
		case "lease/resp":
			return withLeaseID(t, f, 0, leaseID)
		case "report-sparse/req", "report-dense/req":
			return withLeaseID(t, f, 1, leaseID) // after the version byte
		}
		return f
	}
	for _, step := range [][2]string{
		{"hello/req", "hello/resp"},
		{"scale/req", "scale/resp"},
		{"size/req", "size/resp"},
		{"insert/req", "insert/resp"},
		{"await/req", "await/resp"},
		{"write/req", "write/resp"},
		{"read/req", "read/resp"},
		{"release-reinsert/req", "release-reinsert/resp"},
		{"await/req", "await/resp"},
		{"release/req", "release/resp"},
		{"topology/req", "topology/resp"},
		{"lease/req", "lease/resp"},
		{"report-sparse/req", "report/resp"},
		{"report-dense/req", "report/resp"},
		{"watch/req", "watch-ack-empty/resp"},
	} {
		got := exchange(t, conn, frame(step[0]))
		if step[0] == "lease/req" {
			var err error
			if leaseID, err = decodeFleetLeaseResponse(got.payload); err != nil {
				t.Fatal(err)
			}
		}
		if want := frame(step[1]); !bytes.Equal(encodeFrame(got.op, got.payload), want) {
			t.Fatalf("%s answered\n%x\nwant %s\n%x", step[0], encodeFrame(got.op, got.payload), step[1], want)
		}
	}
}

// wireRejection is one refused frame: the exact bytes in, the status
// byte the server answers, and the sentinel the refusal matches under
// errors.Is — at the handler, and (for a coded status) on the client.
type wireRejection struct {
	name   string
	op     byte // the refused opcode
	hello  bool // the connection completed opHello first
	budget bool // the server meters report bytes (a 10-byte burst)
	in     []byte
	status byte
	want   error
}

func withPayloadByte(frame []byte, b byte) []byte {
	out := append([]byte(nil), frame...)
	out[13] = b
	return out
}

func wireRejections(t *testing.T) []wireRejection {
	g := func(name string) []byte { return goldenFrame(t, name) }
	h := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rs := []wireRejection{
		{"hello range without 6", opHello, false, false, h("0b000000" + "0700000000000000" + "09" + "0305"), statusVersion, ErrVersion},
		{"retired op 13", 13, true, false, h("09000000" + "0700000000000000" + "0d"), statusError, errUnknownOp},
		{"unknown op", 99, true, false, h("09000000" + "0700000000000000" + "63"), statusError, errUnknownOp},
		{"unknown fingerprint", opPlaceCompute, true, false, g("place-fingerprint/req"), statusUnknownMatrix, ErrUnknownMatrix},
		{"unknown lease", opObservedReport, true, false, g("report-sparse/req"), statusUnknownLease, ctrlplane.ErrUnknownLease},
		{"report over budget", opObservedReport, true, true, g("report-sparse/req"), statusRateLimited, ctrlplane.ErrRateLimited},
	}
	for _, name := range []string{"place-body/req", "lease/req", "report-sparse/req", "watch/req"} {
		f := g(name)
		rs = append(rs, wireRejection{"bad version byte: " + name, f[12], true, false, withPayloadByte(f, 5), statusVersion, ErrVersion})
	}
	for op := byte(opScale); op <= opWatchRemaps; op++ {
		if op != opHello {
			rs = append(rs, wireRejection{"before hello: op " + strconv.Itoa(int(op)), op, false, false, encodeFrame(op, nil), statusVersion, ErrVersion})
		}
	}
	return rs
}

func TestWireRejections(t *testing.T) {
	t.Run("short frame", func(t *testing.T) {
		in, _ := hex.DecodeString("08000000" + "0700000000000000")
		if _, err := readMessage(bytes.NewReader(in), nil); !errors.Is(err, errBadFrame) {
			t.Fatalf("err = %v, want errBadFrame", err)
		}
		_, addr := startFixtureServer(t)
		conn := rawConn(t, addr)
		conn.Write(in)
		if _, err := readMessage(conn, nil); err == nil {
			t.Fatal("server answered a short frame instead of dropping the connection")
		}
	})
	plainSrv, plainAddr := startFixtureServer(t)
	budgetSrv, budgetAddr := startFixtureServer(t, WithReportCaps(0, 0, 1, 10))
	for _, c := range wireRejections(t) {
		t.Run(c.name, func(t *testing.T) {
			srv, addr := plainSrv, plainAddr
			if c.budget {
				srv, addr = budgetSrv, budgetAddr
			}
			m, err := readMessage(bytes.NewReader(c.in), nil)
			if err != nil {
				t.Fatal(err)
			}
			st := &connState{reqs: make(map[uint64]*orwl.RawRequest)}
			st.hello.Store(c.hello)
			_, _, herr := srv.handle(st, m)
			if !errors.Is(herr, c.want) {
				t.Fatalf("handler err = %v, want %v", herr, c.want)
			}
			conn := rawConn(t, addr)
			if c.hello {
				exchange(t, conn, goldenFrame(t, "hello/req"))
			}
			resp := exchange(t, conn, c.in)
			if resp.op != c.status || string(resp.payload) != herr.Error() {
				t.Fatalf("wire answer = status %d %q, want status %d %q", resp.op, resp.payload, c.status, herr.Error())
			}
			if cerr := responseError(resp); c.status != statusError && !errors.Is(cerr, c.want) {
				t.Fatalf("client err = %v, want %v", cerr, c.want)
			}
		})
	}
}

// Older peers. Every build before this one negotiated protocols 0-6 and
// pinned payload schemas 1-6; the suites that kept those pairings
// working now pin how each pairing is refused.

// refuseHello: a client offering [min, max] without protoVersion is
// answered statusVersion, and the connection stays usable for a
// correct hello.
func refuseHello(t *testing.T, min, max byte) {
	t.Helper()
	_, addr := startFixtureServer(t)
	conn := rawConn(t, addr)
	resp := exchange(t, conn, encodeFrame(opHello, []byte{min, max}))
	if resp.op != statusVersion || !errors.Is(responseError(resp), ErrVersion) {
		t.Fatalf("hello [%d,%d] answered status %d %q, want statusVersion", min, max, resp.op, resp.payload)
	}
	if resp := exchange(t, conn, goldenFrame(t, "hello/req")); resp.op != statusOK {
		t.Fatalf("hello after a refusal: status %d %q", resp.op, resp.payload)
	}
}

// refuseServer: a server answering the hello with (status, payload)
// fails the dial; a server that agreed another version fails it with
// ErrVersion.
func refuseServer(t *testing.T, status byte, payload []byte) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			msg, err := readMessage(conn, nil)
			if err != nil {
				return
			}
			writeMessage(conn, message{callID: msg.callID, op: status, payload: payload})
		}
	}()
	c, err := Dial(lis.Addr().String())
	if err == nil {
		c.Close()
		t.Fatalf("dial succeeded against a server answering hello with status %d %x", status, payload)
	}
	if status == statusOK && !errors.Is(err, ErrVersion) {
		t.Fatalf("dial err = %v, want ErrVersion", err)
	}
}

// refusePayloads: each golden payload with any other version byte is
// refused by its decoder with ErrVersion.
func refusePayloads(t *testing.T, names ...string) {
	t.Helper()
	decoders := wireDecoders()
	for _, name := range names {
		p := append([]byte(nil), goldenPayload(t, name)...)
		for v := 0; v < 256; v++ {
			if p[0] = byte(v); v == protoVersion {
				continue
			}
			if _, err := decoders[name](p); !errors.Is(err, ErrVersion) {
				t.Fatalf("%s at version %d: err = %v, want ErrVersion", name, v, err)
			}
		}
	}
}

func TestLegacyServerFallback(t *testing.T) {
	refuseServer(t, statusError, []byte("orwlnet: unknown op 9"))
}
func TestBatchAgainstOldServer(t *testing.T)          { refuseServer(t, statusOK, []byte{1}) }
func TestV3ClientAgainstBatchServer(t *testing.T)     { refuseServer(t, statusOK, []byte{2}) }
func TestPipelinedClientAgainstV3Server(t *testing.T) { refuseServer(t, statusOK, []byte{3}) }
func TestV6ClientAgainstV5Server(t *testing.T)        { refuseServer(t, statusOK, []byte{5}) }
func TestPinnedV3ClientAgainstV4Server(t *testing.T)  { refuseHello(t, 0, 3) }
func TestPinnedV4ClientAgainstV5Server(t *testing.T)  { refuseHello(t, 0, 4) }
func TestPinnedV5ClientAgainstV6Server(t *testing.T)  { refuseHello(t, 0, 5) }
func TestPinnedV6ClientAgainstV7Server(t *testing.T)  { refuseHello(t, 0, 6) }
func TestV7ClientAgainstV6Server(t *testing.T)        { refuseServer(t, statusOK, []byte{6}) }
func TestCrossVersionRequests(t *testing.T)           { refusePayloads(t, "place-body/req", "place/resp") }
func TestServiceStatsV2Downgrade(t *testing.T)        { refusePayloads(t, "stats/resp") }

// TestServiceStatsV3RoundTrip: the stats golden decodes to every field
// of the fixture it was built from.
func TestServiceStatsV3RoundTrip(t *testing.T) {
	got, err := decodeServiceStats(goldenPayload(t, "stats/resp"))
	if err != nil {
		t.Fatal(err)
	}
	if want := fixtureStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stats golden decoded to\n %+v\nwant %+v", got, want)
	}
}
func TestWatchPusherV5Schema(t *testing.T) {
	refusePayloads(t, "watch/req", "watch-ack/resp", "push-delta/resp")
}
func TestFleetOpsRefusedBelowProtoFleet(t *testing.T) {
	refusePayloads(t, "lease/req", "report-sparse/req", "report-dense/req")
}

// TestFleetV1RequestCompat: the first protocol's client is refused at
// the hello, and what it relied on survives in protocol 8 — a request
// naming no machine routes to the default machine.
func TestFleetV1RequestCompat(t *testing.T) {
	refuseHello(t, 0, 1)
	_, addr := startFixtureServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.placementService().Place(context.Background(), &placement.PlaceRequest{Strategy: placement.TreeMatch, Matrix: chainMatrix(4)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Machine != "tinyflat" || resp.Assignment.Entities() != 4 {
		t.Fatalf("unnamed request served as %+v", resp)
	}
}

// TestWireOpcodeTable: DESIGN.md's opcode table names every opcode with
// its number, each has a golden request and response, and its
// coded-refusal column lists exactly the codes the rejection fixtures
// see for it.
func TestWireOpcodeTable(t *testing.T) {
	opNames := map[string]byte{
		"opScale": opScale, "opSize": opSize, "opInsert": opInsert, "opAwait": opAwait,
		"opRead": opRead, "opWrite": opWrite, "opRelease": opRelease, "opReleaseReinsert": opReleaseReinsert,
		"opHello": opHello, "opPlaceCompute": opPlaceCompute, "opTopology": opTopology, "opPlaceStats": opPlaceStats,
		"opFleetLease": opFleetLease, "opObservedReport": opObservedReport, "opWatchRemaps": opWatchRemaps,
	}
	codes := map[byte]map[int]bool{}
	for _, c := range wireRejections(t) {
		if c.status != statusError && c.op != 99 {
			if codes[c.op] == nil {
				codes[c.op] = map[int]bool{}
			}
			codes[c.op][int(c.status)] = true
		}
	}
	hasFrame := map[byte]map[bool]bool{} // op → request?/response? golden
	for name, f := range wireFrames() {
		if hasFrame[f.op] == nil {
			hasFrame[f.op] = map[bool]bool{}
		}
		hasFrame[f.op][strings.HasSuffix(name, "/req")] = true
	}

	doc, err := os.Open("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	defer doc.Close()
	row := regexp.MustCompile(`^\|\s*(\d+)\s*\|\s*(op\w+)\s*\|.*\|\s*([\d, ]*?)\s*\|$`)
	seen := map[byte]bool{}
	in := false
	sc := bufio.NewScanner(doc)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			in = line == "### Opcode table"
			continue
		}
		m := row.FindStringSubmatch(line)
		if !in || m == nil {
			continue
		}
		num, _ := strconv.Atoi(m[1])
		op, ok := opNames[m[2]]
		if !ok || int(op) != num {
			t.Errorf("DESIGN.md: %s is op %d in the table, %d in the code", m[2], num, op)
			continue
		}
		seen[op] = true
		if !hasFrame[op][true] || !hasFrame[op][false] {
			t.Errorf("%s: no golden request and response", m[2])
		}
		var listed, fixtures []int
		for _, f := range strings.FieldsFunc(m[3], func(r rune) bool { return r == ',' || r == ' ' }) {
			n, _ := strconv.Atoi(f)
			listed = append(listed, n)
		}
		for code := range codes[op] {
			fixtures = append(fixtures, code)
		}
		sort.Ints(listed)
		sort.Ints(fixtures)
		if !slices.Equal(listed, fixtures) {
			t.Errorf("DESIGN.md: %s lists coded refusals %v, the fixtures see %v", m[2], listed, fixtures)
		}
	}
	if len(seen) != len(opNames) {
		t.Errorf("DESIGN.md's opcode table lists %d of the %d opcodes", len(seen), len(opNames))
	}
}
