package comm

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// pairCell is one ForEachPair visit, its volume as bits.
type pairCell struct {
	i, j int
	v    uint64
}

func (p pairCell) String() string {
	return fmt.Sprintf("(%d,%d)=%g", p.i, p.j, math.Float64frombits(p.v))
}

func walkPairs(a Affinity) []pairCell {
	var out []pairCell
	a.ForEachPair(func(i, j int, v float64) { out = append(out, pairCell{i, j, math.Float64bits(v)}) })
	return out
}

// pairsByAt is the brute-force reference: every cell in row-major
// order, the mirror read through At, an upper cell charged with the
// mirror folded in, a lower cell only when its upper is zero.
func pairsByAt(a Affinity) []pairCell {
	var out []pairCell
	n := a.Order()
	for i := range n {
		for j := range n {
			v, mirror := a.At(i, j), a.At(j, i)
			switch {
			case i == j || v == 0:
			case j > i:
				out = append(out, pairCell{i, j, math.Float64bits(v + mirror)})
			case mirror == 0:
				out = append(out, pairCell{i, j, math.Float64bits(v)})
			}
		}
	}
	return out
}

// checkPairWalks holds the dense and the sparse walk of the same cells
// to each other and to the reference, bit for bit.
func checkPairWalks(t *testing.T, name string, dense *Matrix, sparse *Sparse) []pairCell {
	t.Helper()
	want := pairsByAt(dense)
	for _, a := range []Affinity{dense, sparse} {
		if got := walkPairs(a); !slices.Equal(got, want) {
			t.Fatalf("%s: %T ForEachPair = %v, the At reference %v", name, a, got, want)
		}
	}
	return want
}

func TestForEachPair(t *testing.T) {
	negZero := math.Copysign(0, -1)
	type cell struct {
		i, j int
		v    float64
	}
	for _, tc := range []struct {
		name  string
		n     int
		cells []cell
		want  string // the walk, when the case pins it by hand
	}{
		{name: "order 0", n: 0, want: "[]"},
		{name: "empty rows", n: 4, want: "[]"},
		{name: "symmetric pair", n: 3, cells: []cell{{0, 2, 3}, {2, 0, 3}}, want: "[(0,2)=6]"},
		{name: "mirror folded", n: 3, cells: []cell{{0, 1, 1.5}, {1, 0, 2.25}}, want: "[(0,1)=3.75]"},
		{name: "lone lower cell", n: 3, cells: []cell{{2, 0, 5}}, want: "[(2,0)=5]"},
		{name: "row of lower cells only", n: 4, cells: []cell{{3, 0, 1}, {3, 1, 2}, {3, 2, 4}, {1, 3, 8}},
			want: "[(1,3)=10 (3,0)=1 (3,2)=4]"},
		{name: "diagonal skipped", n: 3, cells: []cell{{1, 1, 4}, {1, 2, 1}, {2, 2, 9}}, want: "[(1,2)=1]"},
		{name: "negative zero is absent", n: 4, cells: []cell{{0, 1, negZero}, {1, 0, 3}, {2, 3, 2}, {3, 2, negZero}},
			want: "[(1,0)=3 (2,3)=2]"},
		{name: "folded to zero", n: 2, cells: []cell{{0, 1, 1}, {1, 0, -1}}, want: "[(0,1)=0]"},
		{name: "empty rows between", n: 6, cells: []cell{{1, 4, 2}, {4, 1, 1}, {4, 0, 7}, {1, 5, 3}},
			want: "[(1,4)=3 (1,5)=3 (4,0)=7]"},
		{name: "upper before its lone lower", n: 5, cells: []cell{{0, 4, 1}, {3, 1, 2}, {4, 2, 6}, {2, 4, 1}},
			want: "[(0,4)=1 (2,4)=7 (3,1)=2]"},
	} {
		dense, sparse := NewMatrix(tc.n), NewSparse(tc.n)
		for _, c := range tc.cells {
			dense.Set(c.i, c.j, c.v)
			sparse.Set(c.i, c.j, c.v)
		}
		if got := checkPairWalks(t, tc.name, dense, sparse); fmt.Sprint(got) != tc.want {
			t.Errorf("%s: walk %v, want %s", tc.name, got, tc.want)
		}
	}
	for name, m := range map[string]*Matrix{
		"ring":      Ring(17, 64, true),
		"stencil":   Stencil2D(5, 4, 10, 3),
		"clustered": Clustered(24, 4, 100, 1),
		"random":    Random(20, 50, 7),
	} {
		checkPairWalks(t, name, m, SparseFromMatrix(m))
	}
}

// FuzzForEachPair drives one mutation sequence into both storages, -0
// cells included, and holds both walks to the reference.
func FuzzForEachPair(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 10, 0, 1, 0, 20, 1})
	f.Add(uint8(4), []byte{3, 0, 7, 0, 0, 3, 0, 3, 2, 2, 9, 0})
	f.Add(uint8(12), []byte{3, 7, 255, 2, 7, 3, 1, 1, 3, 7, 1, 0, 11, 2, 5, 0})
	f.Fuzz(func(t *testing.T, order uint8, data []byte) {
		n := 1 + int(order)%32
		dense, sparse := NewMatrix(n), NewSparse(n)
		for k := 0; k+3 < len(data); k += 4 {
			i, j, v := int(data[k])%n, int(data[k+1])%n, float64(int8(data[k+2]))
			switch data[k+3] % 4 {
			case 0:
				dense.Set(i, j, v)
				sparse.Set(i, j, v)
			case 1:
				dense.Add(i, j, v)
				sparse.Add(i, j, v)
			case 2:
				dense.AddSym(i, j, v)
				sparse.AddSym(i, j, v)
			case 3:
				dense.Set(i, j, math.Copysign(0, -1))
				sparse.Set(i, j, math.Copysign(0, -1))
			}
		}
		checkPairWalks(t, "fuzz", dense, sparse)
	})
}

var pairSink float64

// TestForEachPairSparseAllocatesNothing: the mirror cursors come from a
// pool, so once a first walk has sized them, walking an order-2,048
// window allocates nothing.
func TestForEachPairSparseAllocatesNothing(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var a Affinity = RingOfClusters(256, 8, 100, 1)
	if a.Order() != 2048 {
		t.Fatalf("order %d", a.Order())
	}
	if allocs := testing.AllocsPerRun(10, func() {
		a.ForEachPair(func(i, j int, v float64) { pairSink += v })
	}); allocs != 0 {
		t.Errorf("ForEachPair on an order-2,048 window made %v allocations per walk, want 0", allocs)
	}
}
