package codec

import (
	"bytes"
	"math"
	"reflect"
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
		{"assignment", PutAssignment(nil, asg), []byte{1, 2, 0, 't', 'm', AssignOversubscribed, 2, 3, 0, 6, 3, 1, 2, 0}},
		{"absent matrix", field(PutMatrixField(nil, nil)), []byte{MatAbsent}},
		{"sparse matrix", field(PutMatrixField(nil, ring)), []byte{MatSparse, 2, 2, 1, 1, 0x40, 0, 1, 0x40}},
	}
	for _, c := range cases {
		if !bytes.Equal(c.got, c.want) {
			t.Errorf("%s: % x, want % x", c.name, c.got, c.want)
		}
	}
	if a, rest, err := GetAssignment(PutAssignment(nil, asg), nil); err != nil || len(rest) != 0 || !reflect.DeepEqual(a, asg) {
		t.Errorf("assignment decoded to %+v (%d trailing, %v)", a, len(rest), err)
	}
	m, fp, rest, err := GetMatrixField([]byte{MatSparse, 2, 2, 1, 1, 0x40, 0, 1, 0x40}, 2, nil)
	if err != nil || len(rest) != 0 || m.At(0, 1) != 2 || m.At(1, 0) != 2 || m.NNZ() != 2 || fp != comm.Fingerprint(ring) {
		t.Errorf("sparse matrix decoded to %v, fingerprint %016x (%d trailing, %v)", m, fp, len(rest), err)
	}
}

func field(b []byte, _ uint64) []byte { return b }

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

// TestCodecMatrixMemoryBound: whatever order the caller allows, a field
// decodes dense only up to MaxMatrixOrder, and above it only sparse,
// holding at most MaxMatrixOrder²/8 cells and no -0.
func TestCodecMatrixMemoryBound(t *testing.T) {
	const cap8 = MaxMatrixOrder * MaxMatrixOrder / 8
	run := func(n int, length uint64, raw uint64) []byte {
		b := PutUvarint([]byte{MatSparse}, uint64(n))
		b = append(b, 1, 0) // one run, no gap
		return PutUvarint(PutUvarint(b, length), raw)
	}
	negZero := ZigzagFloat(math.Copysign(0, -1))
	cases := []struct {
		name  string
		field []byte
		want  string // "sparse" or "dense": the decoded form; otherwise the error
	}{
		{"dense at the limit's order", run(MaxMatrixOrder, cap8+1, 0x40), "dense"},
		{"-0 at the limit's order", run(MaxMatrixOrder, 1, negZero), "dense"},
		{"sparse above the limit", run(MaxMatrixOrder+1, cap8, 0x40), "sparse"},
		{"too many cells above the limit", run(MaxMatrixOrder+1, cap8+1, 0x40),
			"codec: order-2897 sparse body claims 1048353 cells, over the 1048352 a body above order 2896 may hold"},
		{"-0 above the limit", run(MaxMatrixOrder+1, 1, negZero),
			"codec: order-2897 sparse body holds a -0 cell, which decodes only dense, up to order 2896"},
		{"order above the caller's bound", run(1<<16+1, 1, 0x40), "codec: sparse matrix order 65537 exceeds limit 65536"},
		{"dense above the limit", append([]byte{MatDense}, PutUint64(nil, MaxMatrixOrder+1)...), "codec: dense matrix order 2897 exceeds limit 2896"},
	}
	for _, c := range cases {
		m, _, _, err := GetMatrixField(c.field, 1<<16, nil)
		switch c.want {
		case "sparse", "dense":
			_, dense := m.(*comm.Matrix)
			if err != nil || dense != (c.want == "dense") {
				t.Errorf("%s: decoded %T (%v), want %s", c.name, m, err, c.want)
			}
		default:
			if err == nil || err.Error() != c.want {
				t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
			}
		}
	}
}
