package treematch

import (
	"math"
	"math/rand"
	"testing"

	"orwlplace/internal/comm"
)

// denseOf reads a CSR back as a dense matrix.
func denseOf(c *symCSR) *comm.Matrix {
	m := comm.NewMatrix(c.order())
	for i := 0; i < c.order(); i++ {
		for k := c.ptr[i]; k < c.ptr[i+1]; k++ {
			m.Set(i, c.col[k], c.val[k])
		}
	}
	return m
}

// TestAggregate: aggregating two clusters of two gives the inter-group
// volume both ways and stores no intra-group (diagonal) entry.
func TestAggregate(t *testing.T) {
	ws := &mapWorkspace{}
	var agg symCSR
	aggregate(&agg, symOf(comm.Clustered(4, 2, 10, 1)), [][]int{{0, 1}, {2, 3}}, ws)
	if agg.order() != 2 {
		t.Fatalf("aggregated order = %d", agg.order())
	}
	// Between groups: 2x2 ordered pairs of symmetrized volume 2.
	got := denseOf(&agg)
	if got.At(0, 1) != 8 || got.At(1, 0) != 8 {
		t.Errorf("inter-group volume = %g/%g, want 8/8", got.At(0, 1), got.At(1, 0))
	}
	if got.At(0, 0) != 0 || got.At(1, 1) != 0 || len(agg.col) != 2 {
		t.Errorf("intra-group volume stored: %v", agg)
	}
}

// TestAggregatePreservesVolume: the aggregate holds exactly the volume
// that crosses groups, and matches the dense reference aggregation bit
// for bit off the diagonal on fractional volumes.
func TestAggregatePreservesVolume(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n, size := 24, 1+rng.Intn(6)
		for n%size != 0 {
			size++
		}
		m := comm.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Intn(3) == 0 {
					m.Set(i, j, rng.Float64()*100)
				}
			}
		}
		perm := rng.Perm(n)
		groups := make([][]int, n/size)
		for g := range groups {
			groups[g] = append([]int(nil), perm[g*size:(g+1)*size]...)
		}
		normalizeGroups(groups)
		sym := symOf(m)
		var agg symCSR
		aggregate(&agg, sym, groups, &mapWorkspace{})

		var cross float64
		groupOf := make([]int, n)
		for g, members := range groups {
			for _, i := range members {
				groupOf[i] = g
			}
		}
		sm := denseOf(sym)
		sm.ForEach(func(i, j int, v float64) {
			if groupOf[i] != groupOf[j] {
				cross += v
			}
		})
		if got := denseOf(&agg).Total(); math.Abs(got-cross) > 1e-9*cross {
			t.Fatalf("trial %d: aggregate holds %v, crossing volume %v", trial, got, cross)
		}
		ref := comm.NewMatrix(0)
		if err := aggregateInto(sm, ref, groups, nil); err != nil {
			t.Fatal(err)
		}
		got := denseOf(&agg)
		for a := range groups {
			for b := range groups {
				if a != b && math.Float64bits(got.At(a, b)) != math.Float64bits(ref.At(a, b)) {
					t.Fatalf("trial %d: (%d,%d) = %v, reference %v", trial, a, b, got.At(a, b), ref.At(a, b))
				}
			}
		}
	}
}
