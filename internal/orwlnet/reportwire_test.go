package orwlnet

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/orwl"
)

// The observed-report codec reads and writes comm.Affinity while the
// bytes on the wire stay the compact matrix encoding. These
// tests pin both halves: the encoder against putMatrixCompact on the
// dense form, and the decoder's refusals byte for byte.

// diffCells describes the first difference between two affinities'
// nonzero cells (by value bits), or returns "" when they agree.
func diffCells(a, b comm.Affinity) string {
	if a.Order() != b.Order() {
		return fmt.Sprintf("order %d != %d", a.Order(), b.Order())
	}
	type cell struct {
		j    int
		bits uint64
	}
	row := func(x comm.Affinity, i int) (out []cell) {
		x.ForEachRow(i, func(j int, v float64) { out = append(out, cell{j, math.Float64bits(v)}) })
		return out
	}
	for i := 0; i < a.Order(); i++ {
		ra, rb := row(a, i), row(b, i)
		if len(ra) != len(rb) {
			return fmt.Sprintf("row %d has %d vs %d nonzeros", i, len(ra), len(rb))
		}
		for k := range ra {
			if ra[k] != rb[k] {
				return fmt.Sprintf("row %d: (%d, %x) vs (%d, %x)", i, ra[k].j, ra[k].bits, rb[k].j, rb[k].bits)
			}
		}
	}
	return ""
}

// reportHeader is the frame prefix of lease 7, seq 3.
var reportHeader = []byte{protoVersion, 7, 3}

// reportCase builds one matrix of the property test.
type reportCase struct {
	name  string
	build func(m *comm.Matrix, rng *rand.Rand)
}

func fillRandom(density float64, values []float64) func(*comm.Matrix, *rand.Rand) {
	return func(m *comm.Matrix, rng *rand.Rand) {
		n := m.Order()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() >= density {
					continue
				}
				if values == nil {
					m.Set(i, j, 1+rng.Float64()*1e9) // ten-byte varints: dense mode wins when full
				} else {
					m.Set(i, j, values[rng.Intn(len(values))])
				}
			}
		}
	}
}

var reportCases = []reportCase{
	{"empty", func(*comm.Matrix, *rand.Rand) {}},
	{"last-cell", func(m *comm.Matrix, _ *rand.Rand) { m.Set(m.Order()-1, m.Order()-1, 65536) }},
	{"first-and-last-cell", func(m *comm.Matrix, _ *rand.Rand) {
		m.Set(0, 0, 3)
		m.Set(m.Order()-1, m.Order()-1, 3)
	}},
	{"ring", func(m *comm.Matrix, _ *rand.Rand) {
		for i, n := 0, m.Order(); i < n; i++ {
			m.Set(i, (i+1)%n, 1<<20)
		}
	}},
	{"equal-run-across-rows", func(m *comm.Matrix, _ *rand.Rand) {
		// The tail of every row and the head of the next hold one value:
		// adjacent in the cell stream, yet never one run.
		n := m.Order()
		for i := 0; i < n; i++ {
			for k := 0; k < min(3, n); k++ {
				m.Set(i, k, 4096)
				m.Set(i, n-1-k, 4096)
			}
		}
	}},
	{"sparse-1pct-runs", fillRandom(0.01, []float64{1, 2, 65536, 1.5})},
	{"sparse-12pct-runs", fillRandom(0.12, []float64{1, 65536})},
	{"half-runs", fillRandom(0.5, []float64{1 << 20})},
	{"half-random", fillRandom(0.5, nil)},
	{"full-one-value", fillRandom(2, []float64{7})},
	{"full-random-dense-wins", fillRandom(2, nil)},
}

// TestObservedReportBytesMatchMatrixCompact: for every order on either
// side of the dense threshold and densities from empty to full, the
// report encoder emits exactly the old putMatrixCompact(a.Dense())
// framing — from the dense and from the sparse representation — and
// decode∘encode returns the same cells, sparse exactly when at most an
// eighth of the cells is set, whatever the order (the decoder's
// allocation bound: nothing decodes into more than 8·n² bytes).
func TestObservedReportBytesMatchMatrixCompact(t *testing.T) {
	for _, n := range []int{1, 80, 512, 513, 1024} {
		for ci, c := range reportCases {
			rng := rand.New(rand.NewSource(int64(1000*n + ci)))
			m := comm.NewMatrix(n)
			c.build(m, rng)
			name := fmt.Sprintf("%d/%s", n, c.name)
			want := putMatrixCompact(append([]byte(nil), reportHeader...), m)
			for _, in := range []comm.Affinity{m, comm.SparseFromMatrix(m)} {
				got, err := encodeObservedReport(nil, 7, 3, in)
				if err != nil {
					t.Fatalf("%s: %T: %v", name, in, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: %T encodes to %d bytes (mode %d), putMatrixCompact to %d (mode %d); first difference at %d",
						name, in, len(got), got[3], len(want), want[3], firstDiff(got, want))
				}
			}
			lease, seq, back, err := decodeObservedReport(want, 0, nil)
			if err != nil || lease != 7 || seq != 3 {
				t.Fatalf("%s: decode = (%d, %d, %v)", name, lease, seq, err)
			}
			if diff := diffCells(m, back); diff != "" {
				t.Fatalf("%s: round trip changed cells: %s", name, diff)
			}
			wantDense := m.NNZ() > n*n/8
			if _, dense := back.(*comm.Matrix); dense != wantDense {
				t.Fatalf("%s: %d nonzeros decoded as %T", name, m.NNZ(), back)
			}
		}
	}
	// Dense mode must have been among the cases, on both sides of the
	// threshold.
	full := comm.NewMatrix(513)
	fillRandom(2, nil)(full, rand.New(rand.NewSource(1)))
	if enc, _ := encodeObservedReport(nil, 7, 3, comm.SparseFromMatrix(full)); enc[3] != codec.MatDense {
		t.Fatalf("a full random matrix encoded in mode %d, want dense", enc[3])
	}
}

// TestDenseWindowReportMatchesDenseRead is the client's mirror of the
// decoder's rule: a dense-mode recorder's NextAffinity holds, cell for
// cell, what was recorded in the epoch (a dense matrix the test keeps
// alongside), sparse exactly when the epoch has at most n²/8 nonzeros,
// and reports in the bytes putMatrixCompact gives the dense form — over
// two epochs, so the baseline advance is covered too.
func TestDenseWindowReportMatchesDenseRead(t *testing.T) {
	for _, n := range []int{1, 80, 160, 512} {
		for _, density := range []float64{0, 0.01, 0.12, 0.13, 0.5, 2} {
			rng := rand.New(rand.NewSource(int64(n)*1000 + int64(density*100)))
			tr := orwl.MustProgram(n).Traffic()
			if tr.Sparse() {
				t.Fatalf("order %d records in sparse mode", n)
			}
			affinity := tr.NewWindow()
			for epoch := 0; epoch < 2; epoch++ {
				name := fmt.Sprintf("%d/%g/epoch%d", n, density, epoch)
				want := comm.NewMatrix(n)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if rng.Float64() < density {
							b := 1 + rng.Intn(1<<20)
							tr.Record(i, j, b)
							if i != j { // the recorder drops i == j
								want.Add(i, j, float64(b))
							}
						}
					}
				}
				got := affinity.NextAffinity()
				if diff := diffCells(want, got); diff != "" {
					t.Fatalf("%s: NextAffinity differs from the dense read: %s", name, diff)
				}
				if _, sparse := got.(*comm.Sparse); sparse != (want.NNZ() <= n*n/8) {
					t.Fatalf("%s: %d nonzeros came back as %T", name, want.NNZ(), got)
				}
				enc, err := encodeObservedReport(nil, 7, 3, got)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if ref := putMatrixCompact(append([]byte(nil), reportHeader...), want); !bytes.Equal(enc, ref) {
					t.Fatalf("%s: %T reports in %d bytes, putMatrixCompact of the dense read in %d; first difference at %d",
						name, got, len(enc), len(ref), firstDiff(enc, ref))
				}
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestObservedReportDecodeRejections gives the exact bytes in and the
// exact error out for every way the decoder refuses a frame. The
// prefix {6, 7, 3} is the version byte, lease 7, seq 3.
func TestObservedReportDecodeRejections(t *testing.T) {
	frame := func(body ...byte) []byte { return append(append([]byte(nil), reportHeader...), body...) }
	cases := []struct {
		name    string
		in      []byte
		maxRows int
		want    string
	}{
		{"no version", nil, 0, "orwlnet: missing version byte"},
		{"no matrix field", frame(), 0, "codec: truncated matrix mode"},
		{"absent matrix", frame(codec.MatAbsent), 0, "orwlnet: observed report without a matrix"},
		{"fingerprint reference", frame(matFingerprint, 1, 2, 3, 4, 5, 6, 7, 8, 4), 0, "orwlnet: fingerprint-only matrix without a serving matrix table"},
		{"unknown mode", frame(9), 0, "codec: unknown matrix mode 9"},
		{"dense: truncated order", frame(codec.MatDense, 2, 0, 0), 0, "codec: truncated integer"},
		{"dense: body shorter than 8n²", frame(codec.MatDense, 2, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3), 0, "codec: truncated matrix (order 2)"},
		{"dense: over the row cap", frame(codec.MatDense, 16, 0, 0, 0, 0, 0, 0, 0), 8, "orwlnet: observed report order 16 exceeds the 8-row cap"},
		{"dense: absurd order under a cap", frame(codec.MatDense, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff), 8, "orwlnet: observed report order 18446744073709551615 exceeds the 8-row cap"},
		{"sparse: order above the codec limit", frame(codec.MatSparse, 0xd1, 0x16), 0, "codec: sparse matrix order 2897 exceeds limit 2896"},
		{"sparse: over the row cap", frame(codec.MatSparse, 16, 0), 8, "orwlnet: observed report order 16 exceeds the 8-row cap"},
		{"sparse: no run count", frame(codec.MatSparse, 4), 0, "codec: truncated or overlong varint"},
		{"sparse: more runs than bytes", frame(codec.MatSparse, 4, 100, 0, 1, 1), 0, "codec: absurd sparse run count 100"},
		{"sparse: truncated triplet", frame(codec.MatSparse, 4, 1, 0), 0, "codec: truncated or overlong varint"},
		{"sparse: zero-length run", frame(codec.MatSparse, 4, 1, 0, 0, 1), 0, "codec: sparse run 0 has zero length"},
		{"sparse: gap past the end", frame(codec.MatSparse, 2, 1, 5, 1, 1), 0, "codec: sparse run 0 overruns the 4-cell matrix"},
		{"sparse: run past the end", frame(codec.MatSparse, 2, 1, 3, 2, 1), 0, "codec: sparse run 0 overruns the 4-cell matrix"},
		{"sparse: second run past the end", frame(codec.MatSparse, 2, 2, 0, 4, 1, 0, 1, 1), 0, "codec: sparse run 1 overruns the 4-cell matrix"},
		{"sparse: run length wraps uint64", frame(codec.MatSparse, 2, 1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1), 0, "codec: sparse run 0 overruns the 4-cell matrix"},
		{"sparse: order 0 with a run", frame(codec.MatSparse, 0, 1, 0, 1, 1), 0, "codec: sparse run 0 overruns the 0-cell matrix"},
	}
	for _, c := range cases {
		_, _, delta, err := decodeObservedReport(c.in, c.maxRows, nil)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: % x: err = %v, want %q", c.name, c.in, err, c.want)
		}
		if delta != nil {
			t.Errorf("%s: a refused frame still returned %T", c.name, delta)
		}
	}
	// The smallest accepted frames, for contrast: order 0, and one cell.
	if _, _, d, err := decodeObservedReport(frame(codec.MatSparse, 0, 0), 0, nil); err != nil || d.Order() != 0 {
		t.Errorf("empty order-0 report: %v", err)
	}
	if _, _, d, err := decodeObservedReport(frame(codec.MatSparse, 2, 1, 3, 1, 0x40), 0, nil); err != nil || d.At(1, 1) != 2 {
		t.Errorf("one-cell report: %v %v", d, err)
	}
}

// allocatedBy returns the bytes the calling goroutine's fn allocated
// (the tests using it run nothing else concurrently).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestObservedReportDecodeAllocationBound: a frame over the row cap is
// refused before anything sized by its order is allocated, and a
// six-byte triplet claiming all n² cells of a large order costs the
// dense matrix it describes — the old decoder's bound — not n² sparse
// entries.
func TestObservedReportDecodeAllocationBound(t *testing.T) {
	const n = 1024
	everyCell := append(append([]byte(nil), reportHeader...), codec.MatSparse)
	everyCell = codec.PutUvarint(everyCell, n)
	everyCell = codec.PutUvarint(everyCell, 1)      // one run
	everyCell = codec.PutUvarint(everyCell, 0)      // no gap
	everyCell = codec.PutUvarint(everyCell, n*n)    // every cell
	everyCell = codec.PutUvarint(everyCell, 0xf03f) // 1.0, byte-reversed
	dense := codec.PutUint64(append(append([]byte(nil), reportHeader...), codec.MatDense), n)

	for name, in := range map[string][]byte{"sparse": everyCell, "dense": dense} {
		var err error
		if got := allocatedBy(func() { _, _, _, err = decodeObservedReport(in, n-1, nil) }); err == nil || got > 4096 {
			t.Errorf("%s frame over the row cap: err = %v after allocating %d bytes", name, err, got)
		}
	}
	var delta comm.Affinity
	var err error
	got := allocatedBy(func() { _, _, delta, err = decodeObservedReport(everyCell, n, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := delta.(*comm.Matrix); !ok || delta.At(n-1, n-1) != 1 || delta.NNZ() != n*n {
		t.Fatalf("every-cell frame decoded as %T with %d nonzeros", delta, delta.NNZ())
	}
	if limit := uint64(8*n*n + 64<<10); got > limit {
		t.Fatalf("every-cell frame allocated %d bytes, bound %d", got, limit)
	}
	// Just under an eighth of the cells stays sparse, within the bound.
	eighth := append(append([]byte(nil), reportHeader...), codec.MatSparse)
	eighth = codec.PutUvarint(eighth, n)
	eighth = codec.PutUvarint(eighth, 1)
	eighth = codec.PutUvarint(eighth, 0)
	eighth = codec.PutUvarint(eighth, n*n/8)
	eighth = codec.PutUvarint(eighth, 0xf03f)
	got = allocatedBy(func() { _, _, delta, err = decodeObservedReport(eighth, n, nil) })
	if _, ok := delta.(*comm.Sparse); err != nil || !ok || got > 8*n*n {
		t.Fatalf("eighth-full frame: %T, %v, %d bytes allocated", delta, err, got)
	}
}

// TestReportObservedTypedNil: a nil *comm.Matrix passed through the
// Affinity parameter is the "nil observed window" error, not a panic
// in the encoder.
func TestReportObservedTypedNil(t *testing.T) {
	for _, in := range []comm.Affinity{nil, (*comm.Matrix)(nil), (*comm.Sparse)(nil)} {
		if _, err := encodeObservedReport(nil, 1, 1, in); err == nil || err.Error() != "orwlnet: nil observed window" {
			t.Errorf("%T: err = %v", in, err)
		}
	}
}

// TestObservedReportDecodeIntoReusedTarget: a report decoded into a
// reused target — left holding another order and other rows — has the
// cells of a fresh decode, a body that decodes dense leaves the target
// alone, and a refused body never touches it.
func TestObservedReportDecodeIntoReusedTarget(t *testing.T) {
	dst := comm.NewSparse(900)
	for i := 0; i < 900; i++ {
		dst.Set(i, (i*11+5)%900, float64(i+1))
	}
	for _, n := range []int{600, 40, 1024, 3} {
		rng := rand.New(rand.NewSource(int64(n)))
		w := comm.NewSparse(n)
		for k := 0; k < 3*n; k++ {
			w.Set(rng.Intn(n), rng.Intn(n), float64(1+rng.Intn(1<<20)))
		}
		frame, err := encodeObservedReport(nil, 7, 3, w)
		if err != nil {
			t.Fatal(err)
		}
		_, _, fresh, err := decodeObservedReport(frame, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := dst.Clone()
		_, _, reused, err := decodeObservedReport(frame, 0, dst)
		if err != nil {
			t.Fatal(err)
		}
		if diff := diffCells(fresh, reused); diff != "" {
			t.Fatalf("order %d: reused decode differs from a fresh one: %s", n, diff)
		}
		if _, sparse := fresh.(*comm.Sparse); sparse != (reused == comm.Affinity(dst)) {
			t.Fatalf("order %d: fresh decode %T, reused decode %T (target used: %v)", n, fresh, reused, reused == comm.Affinity(dst))
		} else if diff := diffCells(before, dst); !sparse && diff != "" {
			t.Fatalf("order %d: a body that decodes dense touched the target: %s", n, diff)
		}
	}
	before := dst.Clone()
	refused := append(append([]byte(nil), reportHeader...), codec.MatSparse, 2, 2, 0, 1, 1, 0, 9, 1)
	if _, _, _, err := decodeObservedReport(refused, 0, dst); err == nil {
		t.Fatal("a run past the end was accepted")
	}
	if diff := diffCells(before, dst); diff != "" {
		t.Fatalf("a refused body touched the target: %s", diff)
	}
}

// TestObservedReportDecodeWarmTargetAllocatesNothing: a 1024-task
// window decoded into a target that already held it allocates nothing.
func TestObservedReportDecodeWarmTargetAllocatesNothing(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 1024
	w := comm.NewSparse(n)
	for i := 0; i < n; i++ {
		for _, d := range []int{1, 2, 8, 64} {
			w.Set(i, (i+d)%n, float64(i*d+1))
		}
	}
	frame, err := encodeObservedReport(nil, 7, 3, w)
	if err != nil {
		t.Fatal(err)
	}
	dst := new(comm.Sparse)
	decode := func() {
		if _, _, _, err := decodeObservedReport(frame, n, dst); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if allocs := testing.AllocsPerRun(10, decode); allocs != 0 {
		t.Fatalf("decode into a warm target: %v allocations, want 0", allocs)
	}
	if diff := diffCells(w, dst); diff != "" {
		t.Fatalf("warm decode: %s", diff)
	}
}
