package orwlnet

import (
	"math"
	"testing"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/placement"
)

// Fuzz targets for the fleet frames — the decoders that parse wire
// bytes a hostile peer controls. Same contract as the placement
// targets: rejected is fine, panicking is not, and anything accepted
// must survive a re-encode round trip.

func FuzzObservedReportDecode(f *testing.F) {
	dense := comm.NewMatrix(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			dense.Set(i, j, float64(i*4+j+1))
		}
	}
	if seed, err := encodeObservedReport(nil, 7, 3, dense); err == nil {
		f.Add(seed)
	}
	sparse := comm.Ring(16, 1<<20, true)
	if seed, err := encodeObservedReport(nil, 1, 1, sparse); err == nil {
		f.Add(seed)
		f.Add(seed[:len(seed)/2]) // truncated mid-matrix
	}
	big := comm.NewSparse(600) // one nonzero a row: decodes sparse
	for i := 0; i < 600; i++ {
		big.Set(i, (i+1)%600, float64(i+1))
	}
	if seed, err := encodeObservedReport(nil, 2, 9, big); err == nil {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add(codec.PutUvarint(codec.PutUvarint([]byte{protoVersion}, 1<<40), 1<<40))
	// One triplet claiming every cell of an order-600 matrix.
	f.Add([]byte{protoVersion, 1, 1, codec.MatSparse, 0xd8, 0x04, 1, 0, 0xc0, 0xfc, 0x15, 1})
	// One -0 cell: sparse storage cannot hold it, so the body decodes dense.
	f.Add([]byte{protoVersion, 1, 1, codec.MatSparse, 4, 1, 0, 1, 0x80, 0x01})
	// A reused target left holding another order and other rows, so
	// every accepted input also decodes over stale contents.
	dirty := comm.NewSparse(37)
	for i := 0; i < 37; i++ {
		dirty.Set(i, (i*7+3)%37, float64(i+1))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		leaseID, seq, delta, err := decodeObservedReport(data, 0, nil)
		if err != nil {
			return
		}
		if comm.NilAffinity(delta) {
			t.Fatal("accepted report without a matrix")
		}
		// The allocation bound: nothing decodes into more than a dense
		// order-n matrix, so a sparse result holds at most n²/8 nonzeros
		// — at any order — and a dense one came from a dense body or from
		// a sparse body claiming more than that.
		n := delta.Order()
		if n > codec.MaxMatrixOrder {
			t.Fatalf("accepted order %d", n)
		}
		if sp, ok := delta.(*comm.Sparse); ok && sp.NNZ() > n*n/8 {
			t.Fatalf("order %d with %d nonzeros decoded sparse", n, sp.NNZ())
		}
		field, _ := checkVersion(data)
		_, field, _ = codec.GetUvarint(field) // lease
		_, field, _ = codec.GetUvarint(field) // seq
		if _, dense := delta.(*comm.Matrix); dense && field[0] == codec.MatSparse {
			var order, runs, claimed uint64
			negZero := false
			body, _ := codec.GetUvarints(field[1:], &order, &runs)
			for ; runs > 0; runs-- { // the triplets decoded: gap, length, value
				var length, raw uint64
				_, body, _ = codec.GetUvarint(body)
				length, body, _ = codec.GetUvarint(body)
				raw, body, _ = codec.GetUvarint(body)
				claimed += length
				negZero = negZero || math.Float64bits(codec.UnzigzagFloat(raw)) == 1<<63
			}
			if claimed <= uint64(n*n/8) && !negZero {
				t.Fatalf("order %d sparse body claiming %d cells decoded dense", n, claimed)
			}
		}
		// Decoding into the dirty target gives the same cells, and uses
		// the target exactly when the fresh decode came out sparse.
		_, _, reused, err := decodeObservedReport(data, 0, dirty)
		if err != nil {
			t.Fatalf("accepted report refused with a reused target: %v", err)
		}
		if diff := diffCells(delta, reused); diff != "" {
			t.Fatalf("decode into a reused target differs from a fresh one: %s", diff)
		}
		if _, sparse := delta.(*comm.Sparse); sparse != (reused == comm.Affinity(dirty)) {
			t.Fatalf("fresh decode %T, reused decode %T", delta, reused)
		}
		re, err := encodeObservedReport(nil, leaseID, seq, delta)
		if err != nil {
			t.Fatalf("accepted report does not re-encode: %v", err)
		}
		l2, s2, d2, err := decodeObservedReport(re, 0, nil)
		if err != nil {
			t.Fatalf("re-encoded report rejected: %v", err)
		}
		if l2 != leaseID || s2 != seq {
			t.Fatalf("lease/seq changed across round trip: (%d,%d) -> (%d,%d)", leaseID, seq, l2, s2)
		}
		if diff := diffCells(delta, d2); diff != "" {
			t.Fatalf("cells changed across round trip: %s", diff)
		}
	})
}

func FuzzRemapFrameDecode(f *testing.F) {
	ack, _ := encodeRemapFrame(nil, nil, false)
	f.Add(ack) // the "nothing adopted yet" ack
	full := &ctrlplane.Remap{
		Machine: "fig2",
		Epoch:   3,
		Drift:   0.42,
		Assignment: &placement.Assignment{
			Strategy:  placement.TreeMatch,
			ComputePU: []int{0, 2, 4, 6},
			ControlPU: []int{-1, -1, -1, -1},
		},
	}
	seed, _ := encodeRemapFrame(nil, full, false)
	f.Add(seed)
	f.Add(seed[:len(seed)-2]) // truncated mid-assignment
	full.Drift = math.NaN()   // NaN != NaN: the round trip compares bits
	nan, _ := encodeRemapFrame(nil, full, false)
	f.Add(nan)
	f.Add([]byte{})
	f.Add([]byte{protoVersion, remapKindFull, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ev, d, err := decodeRemapFrameAny(data)
		if err != nil || d != nil {
			return
		}
		if ev.Epoch > 0 && ev.Assignment == nil {
			t.Fatal("accepted a non-zero epoch without an assignment")
		}
		re, _ := encodeRemapFrame(nil, ev, false)
		ev2, d2, err := decodeRemapFrameAny(re)
		if err != nil || d2 != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if ev2.Machine != ev.Machine || ev2.Epoch != ev.Epoch || math.Float64bits(ev2.Drift) != math.Float64bits(ev.Drift) {
			t.Fatalf("header changed across round trip: %+v -> %+v", ev, ev2)
		}
		if (ev.Assignment == nil) != (ev2.Assignment == nil) {
			t.Fatal("assignment presence changed across round trip")
		}
		if ev.Assignment != nil {
			if len(ev2.Assignment.ComputePU) != len(ev.Assignment.ComputePU) {
				t.Fatal("assignment length changed across round trip")
			}
			for i := range ev.Assignment.ComputePU {
				if ev2.Assignment.ComputePU[i] != ev.Assignment.ComputePU[i] {
					t.Fatalf("ComputePU[%d] changed across round trip", i)
				}
			}
		}
	})
}
