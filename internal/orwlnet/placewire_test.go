package orwlnet

import (
	"errors"
	"reflect"
	"testing"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
	"orwlplace/internal/treematch"
)

func chainMatrix(n int) *comm.Matrix {
	m := comm.NewMatrix(n)
	for i := 1; i < n; i++ {
		m.AddSym(i-1, i, float64(i*1000))
	}
	return m
}

// mustEncode unwraps an error-returning codec in tests that feed it
// well-formed values.
func mustEncode(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// encodeReq frames one request, its matrix as the fingerprint reference
// when ref is set and as the body otherwise.
func encodeReq(req *placement.PlaceRequest, ref bool) []byte {
	b, _, err := encodePlaceRequest(nil, req, func(uint64) bool { return ref })
	return mustEncode(b, err)
}

func TestPlaceRequestRoundTrip(t *testing.T) {
	cases := []*placement.PlaceRequest{
		{
			Strategy: "treematch",
			Matrix:   chainMatrix(5),
			Options:  placement.Options{ControlThreads: true},
		},
		{Strategy: "scatter", Entities: 7}, // matrix-oblivious: nil matrix
		{Machine: "smp20e7", Strategy: "treematch", Matrix: chainMatrix(3)},
	}
	for _, req := range cases {
		got, err := decodePlaceRequest(encodeReq(req, false), nil)
		if err != nil {
			t.Fatalf("decode(%+v): %v", req, err)
		}
		if got.Strategy != req.Strategy || got.Entities != req.Entities ||
			got.Options != req.Options || got.Machine != req.Machine {
			t.Errorf("round trip mangled scalars: got %+v, want %+v", got, req)
		}
		if comm.NilAffinity(got.Matrix) != comm.NilAffinity(req.Matrix) {
			t.Fatalf("matrix presence lost: got %v, sent %v", got.Matrix, req.Matrix)
		}
		if !comm.NilAffinity(req.Matrix) && got.Matrix.Dense().String() != req.Matrix.Dense().String() {
			t.Errorf("matrix mangled:\ngot\n%s\nwant\n%s", got.Matrix, req.Matrix)
		}
	}
}

func TestPlaceResponseRoundTrip(t *testing.T) {
	cases := []*placement.PlaceResponse{
		{
			CacheHit:        true,
			Cost:            1234.5,
			CrossNUMAVolume: 88,
			Cache:           placement.CacheStats{Hits: 3, Misses: 2, Entries: 2},
			ElapsedNS:       987654,
			Assignment: &placement.Assignment{
				Strategy:       "treematch",
				ComputePU:      []int{0, 2, 4, 6},
				ControlPU:      []int{1, 3, -1, -1},
				Mode:           treematch.ControlMode(1),
				Oversubscribed: true,
				CoreOf:         []int{0, 1, 2, 3},
			},
		},
		{
			// Unbound baseline: no PU slices at all.
			Assignment: &placement.Assignment{Strategy: "none", Unbound: true},
		},
		{
			// Empty-but-non-nil slice must survive as empty, not nil.
			Assignment: &placement.Assignment{Strategy: "x", ComputePU: []int{}},
		},
		{
			// Machine only, no assignment.
			Machine: "tinyht",
		},
	}
	for _, resp := range cases {
		got, _, err := decodePlaceResponse(encodePlaceResponse(nil, resp), nil)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		want := *resp
		want.Assignment = got.Assignment
		if *got != want {
			t.Errorf("scalars mangled: got %+v, want %+v", got, want)
		}
		if !reflect.DeepEqual(got.Assignment, resp.Assignment) {
			t.Errorf("assignment mangled:\ngot  %+v\nwant %+v", got.Assignment, resp.Assignment)
		}
	}
}

// TestServiceStatsRoundTrip: every field of the stats payload — the
// description, the adaptive, transport and control-plane counters —
// survives the round trip, and a payload cut anywhere is refused
// rather than zero-filled.
func TestServiceStatsRoundTrip(t *testing.T) {
	st := fixtureStats()
	enc := encodeServiceStats(nil, st)
	got, err := decodeServiceStats(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Errorf("round trip mangled stats:\ngot  %+v\nwant %+v", got, st)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := decodeServiceStats(enc[:cut]); err == nil {
			t.Fatalf("stats cut to %d of %d bytes decoded", cut, len(enc))
		}
	}
}

func TestPlaceWireVersionRejected(t *testing.T) {
	req := encodeReq(&placement.PlaceRequest{Strategy: "treematch", Entities: 2}, false)
	for _, v := range []byte{0, protoVersion - 1, protoVersion + 1} {
		req[0] = v
		if _, err := decodePlaceRequest(req, nil); !errors.Is(err, ErrVersion) {
			t.Errorf("version byte %d: err = %v, want ErrVersion", v, err)
		}
	}
	if _, err := decodePlaceRequest(nil, nil); err == nil {
		t.Error("empty payload decoded")
	}
}

// TestPlaceWireVersionByteGuard: every payload decoder refuses each
// of the other 255 values of the version byte with ErrVersion before
// reading a field (the goldens pin that every encoder opens with
// protoVersion). The lease response is a bare lease id, unversioned.
func TestPlaceWireVersionByteGuard(t *testing.T) {
	var names []string
	for name := range wireDecoders() {
		if name != "lease/resp" {
			names = append(names, name)
		}
	}
	refusePayloads(t, names...)
}

func TestPlaceWireTruncationRejected(t *testing.T) {
	full := encodePlaceResponse(nil, &placement.PlaceResponse{
		Assignment: &placement.Assignment{Strategy: "treematch", ComputePU: []int{1, 2, 3}},
	})
	for cut := 1; cut < len(full); cut++ {
		if _, _, err := decodePlaceResponse(full[:cut], nil); err == nil {
			// Some prefixes decode cleanly when the cut lands exactly on
			// the optional assignment boundary; everything else must
			// error rather than panic or fabricate fields.
			if cut < len(full)-1 && full[cut-1] != 0 {
				continue
			}
		}
	}
	reqFull := encodeReq(&placement.PlaceRequest{Strategy: "treematch", Matrix: chainMatrix(3)}, false)
	for cut := 1; cut < len(reqFull); cut++ {
		// Must never panic; errors are expected for most cuts.
		_, _ = decodePlaceRequest(reqFull[:cut], nil)
	}
}

func TestIntSliceNilVsEmpty(t *testing.T) {
	for _, s := range [][]int{nil, {}, {0}, {-1, 5, 1 << 40}} {
		got, rest, err := codec.GetIntSlice(codec.PutIntSlice(nil, s))
		if err != nil {
			t.Fatalf("round trip of %v: %v", s, err)
		}
		if len(rest) != 0 {
			t.Errorf("trailing bytes after %v", s)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("round trip of %v gave %v", s, got)
		}
	}
}
