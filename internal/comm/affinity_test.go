package comm

import (
	"math"
	"testing"
)

// applyOps drives the same mutation sequence derived from data into
// both representations. Values are small integers so every float64 sum
// is exact and the comparisons below can demand bit equality.
func applyOps(data []byte, dense *Matrix, sparse *Sparse) {
	n := dense.Order()
	for k := 0; k+3 < len(data); k += 4 {
		i := int(data[k]) % n
		j := int(data[k+1]) % n
		v := float64(int8(data[k+2]))
		switch data[k+3] % 3 {
		case 0:
			dense.Set(i, j, v)
			sparse.Set(i, j, v)
		case 1:
			dense.Add(i, j, v)
			sparse.Add(i, j, v)
		case 2:
			dense.AddSym(i, j, v)
			sparse.AddSym(i, j, v)
		}
	}
}

func checkEquivalent(t *testing.T, dense *Matrix, sparse *Sparse) {
	t.Helper()
	n := dense.Order()
	if sparse.Order() != n {
		t.Fatalf("order: sparse %d, dense %d", sparse.Order(), n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d, s := dense.At(i, j), sparse.At(i, j); d != s {
				t.Fatalf("At(%d,%d): sparse %g, dense %g", i, j, s, d)
			}
		}
	}
	if d, s := dense.NNZ(), sparse.NNZ(); d != s {
		t.Fatalf("NNZ: sparse %d, dense %d", s, d)
	}
	if d, s := dense.Total(), sparse.Total(); d != s {
		t.Fatalf("Total: sparse %g, dense %g", s, d)
	}
	// Fingerprint hashes cell values, not storage.
	if d, s := Fingerprint(dense), Fingerprint(sparse); d != s {
		t.Fatalf("Fingerprint: sparse %#x, dense %#x", s, d)
	}
}

// FuzzSparseDenseEquivalence drives random mutation sequences into a
// dense Matrix and a Sparse side by side and asserts the Affinity
// surface cannot tell them apart: entries, NNZ, totals and Fingerprint
// all agree.
func FuzzSparseDenseEquivalence(f *testing.F) {
	f.Add([]byte{5, 0, 1, 10, 0, 1, 0, 20, 1})
	f.Add([]byte{12, 3, 7, 255, 2, 7, 3, 1, 1, 3, 7, 1, 0})
	f.Add([]byte{1, 0, 0, 5, 0})
	f.Add([]byte{30, 0, 29, 100, 2, 29, 0, 156, 1, 14, 14, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%32
		dense := NewMatrix(n)
		sparse := NewSparse(n)
		applyOps(data[1:], dense, sparse)
		checkEquivalent(t, dense, sparse)

		// The same sequence into rows carved out of one slab, each
		// reserved a single entry so most of them outgrow it: a row
		// growing must never write into its neighbour's storage.
		ones := make([]int, n)
		for i := range ones {
			ones[i] = 1
		}
		sized := NewSparseSized(ones)
		applyOps(data[1:], NewMatrix(n), sized)
		checkEquivalent(t, dense, sized)
		// And a clone (also slab-backed) is independent of its source.
		clone := sparse.Clone()
		applyOps(data[1:], NewMatrix(n), clone)
		checkEquivalent(t, dense, sparse)
	})
}

func TestSparseDenseEquivalencePatterns(t *testing.T) {
	random := Random(20, 50, 7)
	// Integer-quantize so sums are exact regardless of addition order
	// (Total/aggregate walk entries in representation-specific order).
	for i := 0; i < random.Order(); i++ {
		for j := 0; j < random.Order(); j++ {
			random.Set(i, j, math.Round(random.At(i, j)))
		}
	}
	for name, m := range map[string]*Matrix{
		"ring":      Ring(17, 64, true),
		"stencil":   Stencil2D(5, 4, 10, 3),
		"clustered": Clustered(24, 4, 100, 1),
		"random":    random,
	} {
		_ = name
		checkEquivalent(t, m, SparseFromMatrix(m))
	}
}

func TestNewAffinityRepresentation(t *testing.T) {
	if _, ok := NewAffinity(DenseOrderThreshold).(*Matrix); !ok {
		t.Fatalf("NewAffinity(%d) not dense", DenseOrderThreshold)
	}
	if _, ok := NewAffinity(DenseOrderThreshold + 1).(*Sparse); !ok {
		t.Fatalf("NewAffinity(%d) not sparse", DenseOrderThreshold+1)
	}
}

// TestNewSparseSized: reserved rows fill without reallocating, in any
// column order, and a row pushed past its reservation moves out of the
// shared slab instead of overwriting the next row.
func TestNewSparseSized(t *testing.T) {
	s := NewSparseSized([]int{2, 0, 3})
	if s.Order() != 3 || s.NNZ() != 0 {
		t.Fatalf("fresh sized sparse: order %d nnz %d", s.Order(), s.NNZ())
	}
	s.Set(2, 2, 9)
	s.Set(2, 0, 7)
	s.Set(2, 1, 8)
	s.Set(0, 2, 2)
	s.Set(0, 0, 1)
	allocs := testing.AllocsPerRun(10, func() {
		s.Set(0, 0, 1)
		s.Add(2, 1, 1)
		s.Add(2, 1, -1)
	})
	if allocs != 0 {
		t.Fatalf("updates inside the reservation allocate %v times", allocs)
	}
	s.Set(0, 1, 1.5) // row 0 outgrows its two reserved entries
	s.Set(1, 1, 4)   // row 1 had none
	want := [][3]float64{{0, 0, 1}, {0, 1, 1.5}, {0, 2, 2}, {1, 1, 4}, {2, 0, 7}, {2, 1, 8}, {2, 2, 9}}
	var got [][3]float64
	s.ForEach(func(i, j int, v float64) { got = append(got, [3]float64{float64(i), float64(j), v}) })
	if len(got) != len(want) {
		t.Fatalf("cells %v, want %v", got, want)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("cells %v, want %v (row-major ascending)", got, want)
		}
	}
}

func TestNilAffinity(t *testing.T) {
	for _, a := range []Affinity{nil, (*Matrix)(nil), (*Sparse)(nil)} {
		if !NilAffinity(a) {
			t.Errorf("NilAffinity(%T) = false", a)
		}
	}
	for _, a := range []Affinity{NewMatrix(0), NewSparse(0)} {
		if NilAffinity(a) {
			t.Errorf("NilAffinity(%T) = true for an empty matrix", a)
		}
	}
}

func TestSparseZeroDeletion(t *testing.T) {
	s := NewSparse(4)
	s.Add(1, 2, 5)
	s.Add(1, 2, -5)
	s.Set(0, 3, 7)
	s.Set(0, 3, 0)
	if nz := s.NNZ(); nz != 0 {
		t.Fatalf("NNZ after cancellation = %d, want 0", nz)
	}
}

func TestSparseForEachRowAscendingAndReentrant(t *testing.T) {
	s := NewSparse(8)
	for _, j := range []int{5, 1, 7, 3} {
		s.Set(2, j, float64(j))
		s.Set(4, j, float64(j))
	}
	var outer []int
	s.ForEachRow(2, func(j int, v float64) {
		outer = append(outer, j)
		inner := []int{}
		s.ForEachRow(4, func(k int, _ float64) { inner = append(inner, k) })
		if len(inner) != 4 {
			t.Fatalf("nested iteration saw %d cols", len(inner))
		}
	})
	want := []int{1, 3, 5, 7}
	for i, j := range want {
		if outer[i] != j {
			t.Fatalf("row order %v, want %v", outer, want)
		}
	}
}

func TestRingOfClustersSparse(t *testing.T) {
	k, size := 8, 16
	s := RingOfClusters(k, size, 1000, 10)
	n := k * size
	if s.Order() != n {
		t.Fatalf("order %d, want %d", s.Order(), n)
	}
	// O(n) nonzeros: 2 per intra link (size links per cluster) plus 2
	// per inter link (k links).
	if nnz := s.NNZ(); nnz > 4*n {
		t.Fatalf("nnz %d not O(n) for n=%d", nnz, n)
	}
	if got := s.At(0, 1); got != 1000 {
		t.Fatalf("intra volume %g", got)
	}
	if got := s.At(size-1, size); got != 10 {
		t.Fatalf("inter volume %g", got)
	}
	// Summing by cluster recovers the ring-of-clusters shape.
	agg := NewMatrix(k)
	s.ForEach(func(i, j int, v float64) { agg.Add(i/size, j/size, v) })
	if agg.At(0, 1) != 10 || agg.At(0, 2) != 0 {
		t.Fatalf("cluster aggregate ring broken: %g %g", agg.At(0, 1), agg.At(0, 2))
	}
}
