package codec

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"orwlplace/internal/comm"
)

// sameBits reports whether a and b hold the same storage form, order
// and cells, compared by bit pattern (so -0 and NaN cells count).
func sameBits(a, b comm.Affinity) bool {
	if fmt.Sprintf("%T", a) != fmt.Sprintf("%T", b) || comm.NilAffinity(a) || a.Order() != b.Order() {
		return comm.NilAffinity(a) && comm.NilAffinity(b)
	}
	if da, ok := a.(*comm.Matrix); ok {
		db := b.(*comm.Matrix)
		for i := 0; i < da.Order(); i++ {
			if !slices.EqualFunc(da.RowView(i), db.RowView(i), func(x, y float64) bool {
				return math.Float64bits(x) == math.Float64bits(y)
			}) {
				return false
			}
		}
		return true
	}
	cells := func(m comm.Affinity) (out [][3]uint64) {
		m.ForEach(func(i, j int, v float64) { out = append(out, [3]uint64{uint64(i), uint64(j), math.Float64bits(v)}) })
		return out
	}
	return slices.Equal(cells(a), cells(b))
}

// dirtyTarget is a reused decode target still holding a previous window.
func dirtyTarget() *comm.Sparse {
	s := comm.NewSparse(9)
	for i := 0; i < 9; i++ {
		s.Set(i, (i*4+1)%9, float64(i+1))
	}
	return s
}

// decodeDiff decodes body with getSparseBody and with the two-walk
// reference, into a nil target and into a dirty reused one, and
// describes the first difference — error text, storage form, cells by
// bits, fingerprint, trailing bytes, or what was left in the target —
// or returns "".
func decodeDiff(body []byte, maxOrder int) string {
	for _, reuse := range []bool{false, true} {
		var dst, refDst *comm.Sparse
		if reuse {
			dst, refDst = dirtyTarget(), dirtyTarget()
		}
		got, fp, rest, err := getSparseBody(body, maxOrder, dst)
		want, wantFP, wantRest, wantErr := getSparseBodyTwoWalk(body, maxOrder, refDst)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			return fmt.Sprintf("reuse=%v: err %v, reference %v", reuse, err, wantErr)
		}
		if err == nil && (fp != wantFP || !slices.Equal(rest, wantRest) || !sameBits(got, want)) {
			return fmt.Sprintf("reuse=%v: decoded %T fp %016x with %d trailing; reference %T fp %016x with %d trailing (cells equal: %v)",
				reuse, got, fp, len(rest), want, wantFP, len(wantRest), sameBits(got, want))
		}
		if reuse && (!sameBits(dst, refDst) || (got == comm.Affinity(dst)) != (want == comm.Affinity(refDst))) {
			return fmt.Sprintf("target left %v (decoded into it: %v), reference %v (%v)", dst, got == comm.Affinity(dst), refDst, want == comm.Affinity(refDst))
		}
	}
	return ""
}

// sparseBody builds a bare sparse body of order n: count runs of
// length cells holding v, each after gap zero cells.
func sparseBody(n, count, gap, length int, v float64) []byte {
	b := PutUvarint(PutUvarint(nil, uint64(n)), uint64(count))
	for r := 0; r < count; r++ {
		b = PutUvarint(PutUvarint(PutUvarint(b, uint64(gap)), uint64(length)), ZigzagFloat(v))
	}
	return b
}

// pooledRunCaps drains runPool and returns the capacity of every
// scratch it held, putting them back.
func pooledRunCaps() []int {
	var held []*[]sparseRun
	var caps []int
	for i := 0; i < 64; i++ {
		p := runPool.Get().(*[]sparseRun)
		held = append(held, p)
		caps = append(caps, cap(*p))
	}
	for _, p := range held {
		runPool.Put(p)
	}
	return caps
}

// TestSparseBodyDecodeBound: a body whose runs claim more than m²/8
// cells decodes dense within the dense allocation bound — 8·m² bytes
// of matrix plus the 24·min(runs, m²/8) of the run scratch — and no
// scratch above maxPooledRuns is left in the pool, whatever the body
// decoded to.
func TestSparseBodyDecodeBound(t *testing.T) {
	cases := []struct {
		name                  string
		n, count, gap, length int
		want                  string
	}{
		{"one cell past the cap in single cells", 64, 64*64/8 + 1, 0, 1, "dense"},
		{"one cell past the cap in row-crossing runs", 64, 8, 3, 65, "dense"},
		{"far past the cap, scratch above the pool bound", 1024, 1024*1024/8 + 1, 0, 1, "dense"},
		{"at the cap, scratch above the pool bound", 1024, 1024 * 1024 / 8, 0, 1, "sparse"},
		{"at the cap in single cells", 64, 64 * 64 / 8, 6, 1, "sparse"},
	}
	for _, c := range cases {
		body := sparseBody(c.n, c.count, c.gap, c.length, 3)
		if diff := decodeDiff(body, MaxMatrixOrder); diff != "" {
			t.Fatalf("%s: %s", c.name, diff)
		}
		// The fewest bytes of three decodes: TotalAlloc is process-wide.
		got := math.MaxInt
		for range 3 {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, _, _, err := getSparseBody(body, MaxMatrixOrder, nil)
			runtime.ReadMemStats(&after)
			if _, dense := m.(*comm.Matrix); err != nil || dense != (c.want == "dense") {
				t.Fatalf("%s: decoded %T (%v), want %s", c.name, m, err, c.want)
			}
			got = min(got, int(after.TotalAlloc-before.TotalAlloc))
		}
		cells := c.n * c.n
		scratch := 24 * min(c.count, cells/8)
		bound := 8*cells + scratch + 8*c.n + 4096 // + the row counts of a nil target
		if c.want == "sparse" {
			bound = 24*c.n + 16*cells/8 + scratch + 8*c.n + 4096 // the row table and one slab
		}
		if got > bound {
			t.Errorf("%s: allocated %d bytes, bound %d", c.name, got, bound)
		}
		for _, k := range pooledRunCaps() {
			if k > maxPooledRuns {
				t.Fatalf("%s: the pool kept a scratch of %d runs, over %d", c.name, k, maxPooledRuns)
			}
		}
	}
}

// TestSparseBodyDecodeConcurrent: decodes in flight at once each take
// their own run scratch from the shared pool, so bodies of different
// shapes decoded side by side — sparse, dense fallbacks, refusals —
// still equal the two-walk reference.
func TestSparseBodyDecodeConcurrent(t *testing.T) {
	bodies := [][]byte{
		sparseBody(64, 300, 2, 1, 5),
		sparseBody(64, 64*64/8+1, 0, 1, 7), // dense
		sparseBody(300, 40, 700, 9, 3),     // row-crossing runs
		sparseBody(9, 3, 0, 90, 1),         // overruns: refused
		sparseBody(256, 2000, 1, 2, math.Copysign(0, -1)),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if diff := decodeDiff(bodies[(g+i)%len(bodies)], MaxMatrixOrder); diff != "" {
					t.Error(diff)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzMatrixFieldDecode holds the one-parse sparse body decoder equal
// to the two-walk reference on every input, into a fresh target and
// into a dirty reused one.
func FuzzMatrixFieldDecode(f *testing.F) {
	m := comm.NewMatrix(7)
	m.Set(0, 1, 2)
	m.Set(0, 6, 5)
	m.Set(1, 0, 5) // one run crossing the row end
	m.Set(3, 3, math.Copysign(0, -1))
	m.Set(4, 2, math.NaN())
	s := comm.SparseFromMatrix(m)
	s.Set(3, 3, 0)
	for _, a := range []comm.Affinity{m, s, comm.NewSparse(5)} {
		field, _ := PutMatrixField(nil, a)
		f.Add(field[1:], uint8(8))
	}
	f.Add(sparseBody(8, 9, 0, 1, 1), uint8(8))
	f.Add(sparseBody(8, 2, 5, 9, 4), uint8(8))
	f.Add([]byte{4, 3, 0, 1, 0, 0, 2, 0x40, 0, 13, 0}, uint8(4))
	f.Add([]byte{2, 2, 0, 1, 1, 0, 9, 1}, uint8(2))
	f.Fuzz(func(t *testing.T, body []byte, maxOrder uint8) {
		if diff := decodeDiff(body, int(maxOrder)); diff != "" {
			t.Fatal(diff)
		}
	})
}

// BenchmarkSparseBodyDecode decodes a 1,024-task report's body into a
// warm target, parsed once and by the two-walk reference.
func BenchmarkSparseBodyDecode(b *testing.B) {
	const n = 1024
	w := comm.NewSparse(n)
	for i := 0; i < n; i++ {
		for _, d := range []int{1, 2, 3, 5, 8, 13, 64} {
			w.Set(i, (i+d)%n, float64(i*d+1))
		}
	}
	field, _ := PutMatrixField(nil, w)
	for _, c := range []struct {
		name   string
		decode func([]byte, int, *comm.Sparse) (comm.Affinity, uint64, []byte, error)
	}{{"once", getSparseBody}, {"two-walk", getSparseBodyTwoWalk}} {
		b.Run(c.name, func(b *testing.B) {
			dst := new(comm.Sparse)
			b.SetBytes(int64(len(field)))
			for i := 0; i < b.N; i++ {
				if _, _, _, err := c.decode(field[1:], n, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
