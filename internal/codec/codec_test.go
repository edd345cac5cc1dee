package codec

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
)

// TestCodecFieldBytes pins every field's bytes, hand-packed, and
// decodes each back.
func TestCodecFieldBytes(t *testing.T) {
	asg := &placement.Assignment{Strategy: "tm", Oversubscribed: true, Mode: 2, ComputePU: []int{0, 3}, ControlPU: []int{-1, 1}}
	ring := comm.NewMatrix(2)
	ring.AddSym(0, 1, 2)
	cases := []struct {
		name string
		got  []byte
		want []byte
	}{
		{"string", PutString(nil, "ab"), []byte{2, 0, 'a', 'b'}},
		{"uint64", PutUint64(nil, 0x0102), []byte{2, 1, 0, 0, 0, 0, 0, 0}},
		{"uvarint", PutUvarint(nil, 300), []byte{0xac, 0x02}},
		{"float64", PutFloat64(nil, 0.375), []byte{0, 0, 0, 0, 0, 0, 0xd8, 0x3f}},
		{"bool", PutBool(PutBool(nil, true), false), []byte{1, 0}},
		{"nil int slice", PutIntSlice(nil, nil), []byte{0}},
		{"empty int slice", PutIntSlice(nil, []int{}), []byte{1}},
		{"int slice", PutIntSlice(nil, []int{-1, 2}), []byte{3, 1, 4}},
		{"nil assignment", PutAssignment(nil, nil), []byte{0}},
		{"assignment", PutAssignment(nil, asg), []byte{1, 2, 0, 't', 'm', assignOversubscribed, 2, 3, 0, 6, 3, 1, 2, 0}},
		{"absent matrix", field(PutMatrixField(nil, nil, true)), []byte{MatAbsent}},
		{"sparse matrix", field(PutMatrixField(nil, ring, true)), []byte{MatSparse, 2, 2, 1, 1, 0x40, 0, 1, 0x40}},
	}
	for _, c := range cases {
		if !bytes.Equal(c.got, c.want) {
			t.Errorf("%s: % x, want % x", c.name, c.got, c.want)
		}
	}
	if a, rest, err := GetAssignment(PutAssignment(nil, asg)); err != nil || len(rest) != 0 || !reflect.DeepEqual(a, asg) {
		t.Errorf("assignment decoded to %+v (%d trailing, %v)", a, len(rest), err)
	}
	m, fp, rest, err := GetMatrixField([]byte{MatSparse, 2, 2, 1, 1, 0x40, 0, 1, 0x40}, 2, nil, true)
	if err != nil || len(rest) != 0 || m.At(0, 1) != 2 || m.At(1, 0) != 2 || m.NNZ() != 2 || fp != comm.Fingerprint(ring) {
		t.Errorf("sparse matrix decoded to %v, fingerprint %016x (%d trailing, %v)", m, fp, len(rest), err)
	}
	// Mode 1, the retired dense layout, is an unknown mode.
	if _, _, _, err := GetMatrixField([]byte{1, 2, 0, 0, 0, 0, 0, 0, 0}, 2, nil, true); !errors.Is(err, ErrMatrixMode) || err.Error() != "codec: unknown matrix mode 1" {
		t.Errorf("dense mode byte: err = %v", err)
	}
}

func field(b []byte, _ uint64, _ error) []byte { return b }

// TestCodecStringPrefixMatchesBody: the length prefix always matches
// the body PutString writes, so the fields behind a string stay where
// they are whatever its length.
func TestCodecStringPrefixMatchesBody(t *testing.T) {
	for _, n := range []int{0, 1, maxString, maxString + 1, 70000} {
		s := strings.Repeat("a", n)
		got, rest, err := GetString(PutString(nil, s))
		if err != nil || len(rest) != 0 || got != s[:min(n, maxString)] {
			t.Errorf("%d bytes: decoded %d bytes with %d trailing (%v)", n, len(got), len(rest), err)
		}
		if err := CheckStrings("x", s); (err != nil) != (n > maxString) {
			t.Errorf("%d bytes: CheckStrings = %v", n, err)
		}
	}
}

// TestCodecMatrixMemoryBound: whatever order the caller allows, a
// field's runs claim at most MaxMatrixCells cells. A body at the cap
// decodes within the documented bound — 16 bytes per stored cell, 24 of
// run scratch per segment, and the row table — and one cell more is
// refused, at the order of the densest frame and above it.
func TestCodecMatrixMemoryBound(t *testing.T) {
	run := func(n, length int) []byte { // one run from cell 0
		b := PutUvarint([]byte{MatSparse}, uint64(n))
		b = append(b, 1, 0) // one run, no gap
		return PutUvarint(PutUvarint(b, uint64(length)), ZigzagFloat(3))
	}
	for _, n := range []int{MaxMatrixOrder, MaxMatrixOrder + 1} {
		// The fewest bytes of two decodes: TotalAlloc is process-wide.
		got := math.MaxInt
		for range 2 {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, _, _, err := GetMatrixField(run(n, MaxMatrixCells), 1<<16, nil, true)
			runtime.ReadMemStats(&after)
			if err != nil || m.NNZ() != MaxMatrixCells {
				t.Fatalf("order %d: a body at the cap decoded to %v (%v)", n, m, err)
			}
			got = min(got, int(after.TotalAlloc-before.TotalAlloc))
		}
		// The cells' slab, a scratch of a segment per run and row end,
		// the row counts and the row table.
		if bound := allocBound(16*MaxMatrixCells, 24*(1+n), 8*n, 24*n); got > bound {
			t.Errorf("order %d: a body at the cap allocated %d bytes, bound %d", n, got, bound)
		}
		want := fmt.Sprintf("codec: order-%d sparse body claims %d cells, over the %d a body may hold", n, MaxMatrixCells+1, MaxMatrixCells)
		if _, _, _, err := GetMatrixField(run(n, MaxMatrixCells+1), 1<<16, nil, true); err == nil || err.Error() != want {
			t.Errorf("order %d: one cell past the cap: err = %v, want %q", n, err, want)
		}
	}
	if _, _, _, err := GetMatrixField(run(1<<16+1, 1), 1<<16, nil, true); err == nil || err.Error() != "codec: sparse matrix order 65537 exceeds limit 65536" {
		t.Errorf("order above the caller's bound: err = %v", err)
	}
}

// TestPutMatrixFieldCellCap: the encoder refuses what the decoder
// refuses. A full matrix of order 1448 holds exactly MaxMatrixCells
// cells and round-trips; one of order 1449 is refused with the
// decoder's error, dense or sparse.
func TestPutMatrixFieldCellCap(t *testing.T) {
	full := func(n int) *comm.Matrix {
		m := comm.NewMatrix(n)
		for i := 0; i < n; i++ {
			row := m.RowView(i)
			for j := range row {
				row[j] = float64(1 + i%3)
			}
		}
		return m
	}
	m := full(1448)
	field, fp, err := PutMatrixField(nil, m, true)
	if err != nil {
		t.Fatalf("order 1448: %v", err)
	}
	got, gotFP, _, err := GetMatrixField(field, MaxMatrixOrder, nil, true)
	if err != nil || got.NNZ() != MaxMatrixCells || got.At(1447, 5) != 2 || gotFP != fp || fp != comm.Fingerprint(m) {
		t.Fatalf("order 1448 decoded to %d cells, fingerprint %016x of %016x (%v)", got.NNZ(), gotFP, fp, err)
	}
	m, got = full(1449), nil
	want := fmt.Sprintf("codec: order-1449 sparse body claims %d cells, over the %d a body may hold", 1449*1449, MaxMatrixCells)
	for _, a := range []comm.Affinity{m, comm.SparseFromMatrix(m)} {
		var ce *CellsError
		if _, _, err := PutMatrixField([]byte{0xee}, a, true); !errors.As(err, &ce) || err.Error() != want {
			t.Errorf("order 1449 %T: err = %v, want %q", a, err, want)
		}
	}
}

// TestMatrixFieldFoldOptional: the fold changes nothing but the
// fingerprint. Unfolded, a field encodes to the folded field's bytes
// and decodes to the same cells, with a zero fingerprint both ways; a
// -0 cell included, which folds into the fingerprint but stores
// nothing.
func TestMatrixFieldFoldOptional(t *testing.T) {
	dense := comm.Clustered(24, 4, 1000, 10)
	dense.Set(3, 7, math.Copysign(0, -1))
	sparse := comm.SparseFromMatrix(comm.Clustered(40, 8, 1<<20, 1))
	for _, a := range []comm.Affinity{dense, sparse} {
		folded, fp, err := PutMatrixField([]byte{0xee}, a, true)
		if err != nil || fp != comm.Fingerprint(a) {
			t.Fatalf("%T folded: fingerprint %016x of %016x (%v)", a, fp, comm.Fingerprint(a), err)
		}
		plain, zero, err := PutMatrixField([]byte{0xee}, a, false)
		if err != nil || zero != 0 || !bytes.Equal(plain, folded) {
			t.Fatalf("%T unfolded: fingerprint %016x, bytes equal %v (%v)", a, zero, bytes.Equal(plain, folded), err)
		}
		want, wantFP, _, err := GetMatrixField(folded[1:], MaxMatrixOrder, nil, true)
		if err != nil || wantFP != fp {
			t.Fatalf("%T folded decode: fingerprint %016x of %016x (%v)", a, wantFP, fp, err)
		}
		got, zero, rest, err := GetMatrixField(folded[1:], MaxMatrixOrder, comm.NewSparse(3), false)
		if err != nil || zero != 0 || len(rest) != 0 || got.NNZ() != want.NNZ() {
			t.Fatalf("%T unfolded decode: %d cells of %d, fingerprint %016x (%v)", a, got.NNZ(), want.NNZ(), zero, err)
		}
		for i := 0; i < want.Order(); i++ {
			want.ForEachRow(i, func(j int, v float64) {
				if got.At(i, j) != v {
					t.Fatalf("%T unfolded decode: (%d,%d) = %g, want %g", a, i, j, got.At(i, j), v)
				}
			})
		}
	}
}
