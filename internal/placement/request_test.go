package placement

import (
	"context"
	"math"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

func newFig2Service(t *testing.T) *LocalService {
	t.Helper()
	eng, err := NewEngine(topology.Fig2Machine())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewLocalService(eng)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestPlaceRefusesInvalidVolumes: a NaN, ±Inf or negative cell is
// refused, every time, and nothing is cached; -0 counts as zero.
func TestPlaceRefusesInvalidVolumes(t *testing.T) {
	svc := newFig2Service(t)
	ctx := context.Background()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5} {
		for _, sparse := range []bool{false, true} {
			m := comm.Clustered(32, 8, 1000, 10)
			m.Set(3, 7, v)
			var a comm.Affinity = m
			if sparse {
				a = comm.SparseFromMatrix(m)
			}
			for try := 0; try < 2; try++ {
				if resp, err := svc.Place(ctx, &PlaceRequest{Strategy: TreeMatch, Matrix: a}); err == nil {
					t.Fatalf("%v at (3,7), %T, try %d: placed with cost %v", v, a, try, resp.Cost)
				}
			}
		}
	}
	if st := svc.Engine().Stats(); st.Entries != 0 {
		t.Fatalf("refused requests left %d cache entries", st.Entries)
	}
	m := comm.Clustered(32, 8, 1000, 10)
	m.Set(3, 7, math.Copysign(0, -1))
	if _, err := svc.Place(ctx, &PlaceRequest{Strategy: TreeMatch, Matrix: m}); err != nil {
		t.Fatalf("-0 refused: %v", err)
	}
}

// TestPlaceRefusesEntitiesOtherThanOrder: a matrix fixes the entity
// count. Zero means the order; any other count is refused, whichever
// strategy reads the matrix or not, so no strategy places a different
// number of tasks than the diagnostics cost.
func TestPlaceRefusesEntitiesOtherThanOrder(t *testing.T) {
	svc := newFig2Service(t)
	ctx := context.Background()
	m := comm.Clustered(16, 4, 1000, 10)
	for _, strategy := range []string{TreeMatch, "round-robin-pu"} {
		for _, a := range []comm.Affinity{m, comm.SparseFromMatrix(m)} {
			if _, err := svc.Place(ctx, &PlaceRequest{Strategy: strategy, Matrix: a, Entities: 8}); err == nil {
				t.Errorf("%s, %T: 8 entities for an order-16 matrix placed", strategy, a)
			}
			for _, n := range []int{0, 16} {
				resp, err := svc.Place(ctx, &PlaceRequest{Strategy: strategy, Matrix: a, Entities: n})
				if err != nil {
					t.Fatalf("%s, %T, %d entities: %v", strategy, a, n, err)
				}
				if got := resp.Assignment.Entities(); got != 16 {
					t.Errorf("%s, %T, %d entities: placed %d", strategy, a, n, got)
				}
				if resp.Cost == 0 {
					t.Errorf("%s, %T, %d entities: no cost diagnostics", strategy, a, n)
				}
			}
		}
	}
	// A typed nil in the interface field is no matrix.
	for _, a := range []comm.Affinity{(*comm.Matrix)(nil), (*comm.Sparse)(nil)} {
		if _, err := svc.Place(ctx, &PlaceRequest{Strategy: TreeMatch, Matrix: a, Entities: 8}); err == nil {
			t.Errorf("treematch placed without a matrix (%T)", a)
		}
		resp, err := svc.Place(ctx, &PlaceRequest{Strategy: "round-robin-pu", Matrix: a, Entities: 8})
		if err != nil {
			t.Fatalf("round-robin-pu with %T(nil): %v", a, err)
		}
		if resp.Assignment.Entities() != 8 || resp.Cost != 0 {
			t.Errorf("round-robin-pu with %T(nil): %d entities, cost %v", a, resp.Assignment.Entities(), resp.Cost)
		}
	}
}

// TestPlaceSparseMatchesDenseReference: the daemon decodes sparse
// bodies into sparse storage while an in-process caller holds a dense
// matrix; both must get the same assignment and bit-identical quality
// diagnostics, on every machine, with integer and fractional volumes.
func TestPlaceSparseMatchesDenseReference(t *testing.T) {
	ctx := context.Background()
	for _, name := range topology.MachineNames() {
		top, err := topology.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{3, top.NumCores(), top.NumPUs() + 5} {
			m := comm.Random(n, 1000, int64(n))
			m.Set(0, n-1, 0.375) // a fractional volume
			var got [2]*PlaceResponse
			for k, a := range []comm.Affinity{m, comm.SparseFromMatrix(m)} {
				eng, err := NewEngine(top)
				if err != nil {
					t.Fatal(err)
				}
				svc, _ := NewLocalService(eng)
				if got[k], err = svc.Place(ctx, &PlaceRequest{Strategy: TreeMatch, Matrix: a, Options: Options{ControlThreads: true}}); err != nil {
					t.Fatalf("%s n=%d %T: %v", name, n, a, err)
				}
			}
			d, s := got[0], got[1]
			if math.Float64bits(d.Cost) != math.Float64bits(s.Cost) ||
				math.Float64bits(d.CrossNUMAVolume) != math.Float64bits(s.CrossNUMAVolume) {
				t.Fatalf("%s n=%d: sparse diagnostics (%v, %v), dense (%v, %v)", name, n, s.Cost, s.CrossNUMAVolume, d.Cost, d.CrossNUMAVolume)
			}
			for i := range d.Assignment.ComputePU {
				if d.Assignment.ComputePU[i] != s.Assignment.ComputePU[i] || d.Assignment.ControlPU[i] != s.Assignment.ControlPU[i] {
					t.Fatalf("%s n=%d: task %d placed apart", name, n, i)
				}
			}
		}
	}
}
