package orwlnet

import (
	"bytes"
	"math"
	"reflect"
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
	fresh, errFresh := applyBaseValues(field, held, heldSeq, new(comm.Sparse))
	reused, errReused := applyBaseValues(field, held, heldSeq, dirty)
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
	again, err := applyBaseValues(f2[1:], held, heldSeq, new(comm.Sparse))
	if err != nil {
		t.Fatalf("re-encoded base-coded window refused: %v", err)
	}
	if diff := diffCells(fresh, again); diff != "" {
		t.Fatalf("cells changed across the round trip: %s", diff)
	}
}

// remapFuzzEvent is the event both remap fuzz targets seed from: two
// tasks of a 16-task assignment move, and cache is what a subscriber
// holding the epoch before it has cached.
func remapFuzzEvent() (cache *placement.Assignment, ev *ctrlplane.Remap) {
	cache = &placement.Assignment{
		Strategy:  placement.TreeMatch,
		ComputePU: []int{0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15},
		ControlPU: []int{-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1},
	}
	next := cache.Clone()
	next.ComputePU[3], next.ComputePU[7] = 7, 9
	return cache, &ctrlplane.Remap{Machine: "fig2", Epoch: 4, Drift: 0.1, Assignment: next,
		MovedTasks: []int{3, 7}, RemappedPartitions: []int{1}}
}

// checkRemapFrame holds the contract of an accepted remap frame of
// either kind: what it delivers onto cache re-encodes to a complete
// frame that decodes to the same event, bit for bit, and re-encodes to
// the same bytes — so a delta's fold matches the complete frame the
// daemon would have sent instead. It returns the decoded frame and the
// delivered event, or nils when the frame is refused or does not fold.
func checkRemapFrame(t *testing.T, cache *placement.Assignment, data []byte) (*remapFrame, *ctrlplane.Remap) {
	fr, err := decodeRemapFrame(data)
	if err != nil {
		return nil, nil
	}
	got, err := fr.apply(cache, fr.Epoch-1)
	if err != nil {
		return nil, nil // a delta that does not fold onto the cache: the client resyncs
	}
	re := encodeRemapFrame(nil, got, false)
	back, err := decodeRemapFrame(re)
	if err != nil {
		t.Fatalf("complete frame of an accepted event refused: %v", err)
	}
	if back.Machine != got.Machine || back.Epoch != got.Epoch || math.Float64bits(back.Drift) != math.Float64bits(got.Drift) {
		t.Fatalf("header changed: %+v -> %+v", got, back.Remap)
	}
	if !reflect.DeepEqual(back.Assignment, got.Assignment) {
		t.Fatalf("assignment changed: %+v -> %+v", got.Assignment, back.Assignment)
	}
	if again := encodeRemapFrame(nil, &back.Remap, false); !bytes.Equal(again, re) {
		t.Fatalf("complete frame re-encodes to\n%x\nwant\n%x", again, re)
	}
	return fr, got
}

// FuzzRemapFrameDecode: a remap frame is attacker controlled on a
// watch stream; the seeds are complete frames (checkRemapFrame holds
// the contract).
func FuzzRemapFrameDecode(f *testing.F) {
	cache, ev := remapFuzzEvent()
	f.Add(encodeRemapFrame(nil, nil, false)) // the "nothing adopted yet" ack
	seed := encodeRemapFrame(nil, ev, false)
	f.Add(seed)
	f.Add(seed[:len(seed)-2]) // truncated mid-assignment
	ev.Drift = math.NaN()     // NaN != NaN: the checks compare bits
	f.Add(encodeRemapFrame(nil, ev, false))
	f.Add([]byte{})
	f.Add([]byte{protoVersion, remapKindComplete, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRemapFrame(t, cache, data)
	})
}

// FuzzRemapDeltaDecode: the same contract from delta seeds, and more
// for an accepted delta: it names epoch 1 or later, its moved tasks
// ascend inside its order and its assignment places exactly them; one
// that folds re-encodes, from its fold, to a delta that decodes to the
// same header and lists and folds to the same assignment.
func FuzzRemapDeltaDecode(f *testing.F) {
	cache, ev := remapFuzzEvent()
	seed := encodeRemapFrame(nil, ev, true)
	f.Add(seed)
	f.Add(seed[:len(seed)-2])               // truncated mid-assignment
	f.Add(encodeRemapFrame(nil, ev, false)) // the complete sibling goes through the same entry point
	f.Add([]byte{})
	f.Add([]byte{protoVersion})
	f.Add([]byte{protoVersion, remapKindDelta})
	f.Add([]byte{protoVersion, 0x7f}) // unknown kind
	f.Fuzz(func(t *testing.T, data []byte) {
		if fr, err := decodeRemapFrame(data); err == nil && fr.Delta {
			if fr.Epoch == 0 {
				t.Fatal("accepted a delta with epoch 0")
			}
			prev := -1
			for _, task := range fr.MovedTasks {
				if task <= prev || task >= fr.order {
					t.Fatalf("accepted moved task %d after %d in order %d", task, prev, fr.order)
				}
				prev = task
			}
			if fr.Assignment == nil || len(fr.Assignment.ComputePU) != len(fr.MovedTasks) {
				t.Fatalf("accepted a delta placing other than its %d moved tasks", len(fr.MovedTasks))
			}
		}
		fr, got := checkRemapFrame(t, cache, data)
		if got == nil || !fr.Delta || len(fr.MovedTasks) == 0 {
			return // a delta that moves nothing re-encodes as a complete frame
		}
		back, err := decodeRemapFrame(encodeRemapFrame(nil, got, true))
		if err != nil || !back.Delta {
			t.Fatalf("delta of an accepted fold refused or sent complete: %v", err)
		}
		if back.Machine != fr.Machine || back.Epoch != fr.Epoch || back.order != fr.order ||
			math.Float64bits(back.Drift) != math.Float64bits(fr.Drift) ||
			!reflect.DeepEqual(back.MovedTasks, fr.MovedTasks) ||
			!reflect.DeepEqual(back.RemappedPartitions, fr.RemappedPartitions) {
			t.Fatalf("delta header or lists changed: %+v -> %+v", fr.Remap, back.Remap)
		}
		again, err := back.apply(cache, back.Epoch-1)
		if err != nil {
			t.Fatalf("re-encoded delta does not fold: %v", err)
		}
		if !reflect.DeepEqual(again.Assignment, got.Assignment) {
			t.Fatalf("fold changed: %+v -> %+v", got.Assignment, again.Assignment)
		}
	})
}
