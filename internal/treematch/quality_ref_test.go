package treematch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// The two-walk diagnostics Quality replaced, kept as the reference its
// bits are pinned against: one upper-triangle pass for the hop-weighted
// cost, another for the cross-NUMA volume.

func refCost(top *topology.Topology, m *comm.Matrix, computePU []int) (float64, error) {
	if len(computePU) != m.Order() {
		return 0, fmt.Errorf("treematch: placement for %d entities, matrix order %d",
			len(computePU), m.Order())
	}
	pus := top.PUs()
	for i, pu := range computePU {
		if pu < 0 || pu >= len(pus) {
			return 0, fmt.Errorf("treematch: entity %d bound to invalid PU %d", i, pu)
		}
	}
	var total float64
	for i := 0; i < m.Order(); i++ {
		for j := i + 1; j < m.Order(); j++ {
			v := m.At(i, j) + m.At(j, i)
			if v == 0 {
				continue
			}
			total += v * float64(topology.HopDistance(pus[computePU[i]], pus[computePU[j]]))
		}
	}
	return total, nil
}

func refCrossNUMAVolume(top *topology.Topology, m *comm.Matrix, computePU []int) (float64, error) {
	if len(computePU) != m.Order() {
		return 0, fmt.Errorf("treematch: placement for %d entities, matrix order %d",
			len(computePU), m.Order())
	}
	pus := top.PUs()
	var total float64
	for i := 0; i < m.Order(); i++ {
		for j := i + 1; j < m.Order(); j++ {
			v := m.At(i, j) + m.At(j, i)
			if v == 0 {
				continue
			}
			if topology.LocalityOf(pus[computePU[i]], pus[computePU[j]]) > topology.SameL3 {
				total += v
			}
		}
	}
	return total, nil
}

// TestQualityMatchesTwoWalkReference: on every machine, over random
// orders, densities, non-integer and cancelling volumes and random
// assignments (several entities may share a PU), Quality returns the
// reference's cost and cross-NUMA volume bit for bit.
func TestQualityMatchesTwoWalkReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, name := range topology.MachineNames() {
		top, err := topology.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		npu := len(top.PUs())
		for trial := 0; trial < 12; trial++ {
			n := rng.Intn(2*npu) + 1
			density := []float64{0, 0.03, 0.1, 0.5, 1}[trial%5]
			m := comm.NewMatrix(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if rng.Float64() >= density {
						continue
					}
					switch rng.Intn(4) {
					case 0:
						m.Set(i, j, float64(rng.Intn(1<<20)))
					case 1:
						m.Set(i, j, rng.Float64()*1e6)
					case 2:
						m.Set(i, j, -m.At(j, i)) // the pair cancels to zero
					default:
						m.Set(i, j, math.Copysign(0, -1))
					}
				}
			}
			pus := make([]int, n)
			for i := range pus {
				pus[i] = rng.Intn(npu)
			}
			cost, cross, err := Quality(top, m, pus)
			if err != nil {
				t.Fatalf("%s trial %d: %v", name, trial, err)
			}
			wantCost, _ := refCost(top, m, pus)
			wantCross, _ := refCrossNUMAVolume(top, m, pus)
			if math.Float64bits(cost) != math.Float64bits(wantCost) || math.Float64bits(cross) != math.Float64bits(wantCross) {
				t.Fatalf("%s trial %d (n=%d, density %g): Quality = (%v, %v), reference (%v, %v)",
					name, trial, n, density, cost, cross, wantCost, wantCross)
			}
			if c, err := Cost(top, m, pus); err != nil || math.Float64bits(c) != math.Float64bits(wantCost) {
				t.Fatalf("%s trial %d: Cost = %v, %v; reference %v", name, trial, c, err, wantCost)
			}
		}
	}
}

// TestQualityRefusesLikeReference: a length mismatch gets the error both
// reference walks gave, and an out-of-range PU the one the reference
// cost gave (the reference cross-NUMA walk never checked the range and
// indexed out of bounds on a communicating pair).
func TestQualityRefusesLikeReference(t *testing.T) {
	top := topology.TinyFlat()
	m := comm.Ring(4, 10, false)
	for _, pus := range [][]int{{0, 1}, {0, 1, 2, 99}, {0, -1, 2, 3}} {
		_, _, err := Quality(top, m, pus)
		_, want := refCost(top, m, pus)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%v: Quality err %v, reference %v", pus, err, want)
		}
		if len(pus) != m.Order() {
			if _, x := refCrossNUMAVolume(top, m, pus); x == nil || err.Error() != x.Error() {
				t.Errorf("%v: Quality err %v, reference cross-NUMA %v", pus, err, x)
			}
		}
	}
}
