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
	// One -0 cell: it folds into the fingerprint and decodes as no cell.
	f.Add([]byte{protoVersion, 1, 1, codec.MatSparse, 4, 1, 0, 1, 0x80, 0x01})
	// Base-coded frames against one held base: the 16-task ring above
	// as the lease's window of seq 5.
	const heldSeq = 5
	held := comm.SparseFromMatrix(sparse)
	var client reportBase
	client.set(heldSeq, held)
	drifted := held.Clone()
	drifted.Set(0, 1, 3)
	drifted.Set(15, 0, 0.25)
	for _, w := range []*comm.Sparse{held, drifted} {
		seed, ok := encodeBaseReport(nil, 1, 6, w, &client)
		if !ok {
			f.Fatal("the held base's own pattern does not base-code")
		}
		f.Add(seed)
		f.Add(seed[:len(seed)-1])
	}
	// The first value turned +0, and a run past the 16 values.
	f.Add(codec.PutUvarint(codec.PutUvarint([]byte{protoVersion, 1, 6, matBaseValues, heldSeq, 16, 0}, codec.ZigzagFloat(1<<20)), 15))
	f.Add([]byte{protoVersion, 1, 6, matBaseValues, heldSeq, 16, 17})
	// A reused target left holding another order and other rows, so
	// every accepted input also decodes over stale contents.
	dirty := comm.NewSparse(37)
	for i := 0; i < 37; i++ {
		dirty.Set(i, (i*7+3)%37, float64(i+1))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, seq, field, err := getReportHeader(data); err == nil && len(field) > 0 && field[0] == matBaseValues {
			fuzzBaseValues(t, field[1:], seq, held, heldSeq, dirty)
			return
		}
		leaseID, seq, delta, err := decodeObservedReport(data, ctrlplane.DefaultMaxLeaseTasks, nil)
		if err != nil {
			return
		}
		if comm.NilAffinity(delta) {
			t.Fatal("accepted report without a matrix")
		}
		// The allocation bound: every accepted window is a *comm.Sparse
		// under the row cap, holding at most codec.MaxMatrixCells cells.
		if n := delta.Order(); n > ctrlplane.DefaultMaxLeaseTasks || delta.NNZ() > codec.MaxMatrixCells {
			t.Fatalf("accepted order %d with %d nonzeros", n, delta.NNZ())
		}
		// Decoding into the dirty target gives the same cells, in it.
		_, _, reused, err := decodeObservedReport(data, ctrlplane.DefaultMaxLeaseTasks, dirty)
		if err != nil {
			t.Fatalf("accepted report refused with a reused target: %v", err)
		}
		if diff := diffCells(delta, reused); diff != "" {
			t.Fatalf("decode into a reused target differs from a fresh one: %s", diff)
		}
		if reused != dirty {
			t.Fatal("a report did not decode into the reused target")
		}
		re, err := encodeObservedReport(nil, leaseID, seq, delta)
		if err != nil {
			t.Fatalf("accepted report does not re-encode: %v", err)
		}
		l2, s2, d2, err := decodeObservedReport(re, ctrlplane.DefaultMaxLeaseTasks, nil)
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

// fuzzBaseValues applies a base-coded field to the held base into a
// fresh and into a reused target: both refuse alike or decode the same
// cells, which keep the base's pattern (no value came out ±0) and
// base-code back to a field that decodes to them again.
func fuzzBaseValues(t *testing.T, field []byte, seq uint64, held *comm.Sparse, heldSeq uint64, dirty *comm.Sparse) {
	fresh, errFresh := applyBaseValues(field, held, heldSeq, ctrlplane.DefaultMaxLeaseTasks, new(comm.Sparse))
	reused, errReused := applyBaseValues(field, held, heldSeq, ctrlplane.DefaultMaxLeaseTasks, dirty)
	if (errFresh == nil) != (errReused == nil) || errFresh != nil && errFresh.Error() != errReused.Error() {
		t.Fatalf("fresh target: %v; reused target: %v", errFresh, errReused)
	}
	if errFresh != nil || seq == 0 {
		return
	}
	if diff := diffCells(fresh, reused); diff != "" {
		t.Fatalf("decode into a reused target differs from a fresh one: %s", diff)
	}
	var client reportBase
	client.set(heldSeq, held)
	re, ok := encodeBaseReport(nil, 1, seq, fresh, &client)
	if !ok {
		t.Fatal("an accepted base-coded window lost the base's pattern")
	}
	_, _, f2, err := getReportHeader(re)
	if err != nil {
		t.Fatal(err)
	}
	again, err := applyBaseValues(f2[1:], held, heldSeq, ctrlplane.DefaultMaxLeaseTasks, new(comm.Sparse))
	if err != nil {
		t.Fatalf("re-encoded base-coded window refused: %v", err)
	}
	if diff := diffCells(fresh, again); diff != "" {
		t.Fatalf("cells changed across the round trip: %s", diff)
	}
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
