package placement

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// TestStorageIndependentAdoption sweeps 288 ring → stride-k clique
// shifts (3 machines × 4 orders × 2 strides × 4 volumes × 3 horizons)
// through the unpartitioned loop twice: once with every affinity stored
// dense, once with the same entries stored sparse. Whether a candidate
// is adopted is a property of the mapping and the traffic, not of the
// storage, so the two epoch reports must agree bit for bit. The adoption
// count is pinned at what the cycle-level model decides on dense
// windows; the rejected shifts exercise the unpartitioned reject path.
// Stride 8 over 8 tasks leaves every clique a single task, so those 36
// windows are idle.
func TestStorageIndependentAdoption(t *testing.T) {
	sparse := func(m *comm.Matrix) comm.Affinity { return comm.SparseFromMatrix(m) }
	dense := func(m *comm.Matrix) comm.Affinity { return m }
	var scenarios, adopted, rejected int
	for _, machine := range []string{"fig2", "smp12e5", "smp20e7"} {
		top, err := topology.ByName(machine)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{8, 16, 32, 64} {
			for _, k := range []int{4, 8} {
				for _, vol := range []float64{1 << 8, 1 << 12, 1 << 16, 1 << 20} {
					for _, horizon := range []int{1, 10, 100} {
						ring, cliques := ringMatrix(n, vol), strideClusters(n, k, vol)
						var reps [2]*EpochReport
						for side, store := range []func(*comm.Matrix) comm.Affinity{dense, sparse} {
							eng, err := NewEngine(top)
							if err != nil {
								t.Fatal(err)
							}
							rec, err := NewReconciler(eng, Fixed("shifted", store(cliques)), nil, AdaptiveConfig{Horizon: horizon})
							if err != nil {
								t.Fatal(err)
							}
							if err := rec.Prime(Fixed("declared", store(ring))); err != nil {
								t.Fatal(err)
							}
							if reps[side], err = rec.Epoch(); err != nil {
								t.Fatal(err)
							}
						}
						name := fmt.Sprintf("%s n=%d k=%d vol=%g horizon=%d", machine, n, k, vol, horizon)
						d, s := reps[0], reps[1]
						if d.Recomputed != s.Recomputed || d.Adopted != s.Adopted ||
							math.Float64bits(d.GainSeconds) != math.Float64bits(s.GainSeconds) ||
							math.Float64bits(d.CostSeconds) != math.Float64bits(s.CostSeconds) ||
							!slices.Equal(d.Assignment.ComputePU, s.Assignment.ComputePU) {
							t.Errorf("%s: dense window recomputed %v adopted %v gain %v cost %v; sparse recomputed %v adopted %v gain %v cost %v",
								name, d.Recomputed, d.Adopted, d.GainSeconds, d.CostSeconds, s.Recomputed, s.Adopted, s.GainSeconds, s.CostSeconds)
						}
						scenarios++
						if d.Adopted {
							adopted++
						} else if d.Recomputed {
							rejected++
						}
					}
				}
			}
		}
	}
	if scenarios != 288 || adopted != 72 || rejected != 180 {
		t.Fatalf("%d scenarios: %d adopted, %d rejected; want 288: 72 adopted, 180 rejected", scenarios, adopted, rejected)
	}
}

// TestStorageIndependentScaledAdoption is TestStorageIndependentAdoption
// on the scaled model path: with WindowIterations above 1 the reconciler
// scales the window to one iteration's traffic before simulating, and
// that scaled copy must not depend on the window's storage either. 3 is
// not a power of two, so its scale rounds. The adoption counts are
// pinned at what the dense cycle-level model decides.
func TestStorageIndependentScaledAdoption(t *testing.T) {
	sparse := func(m *comm.Matrix) comm.Affinity { return comm.SparseFromMatrix(m) }
	dense := func(m *comm.Matrix) comm.Affinity { return m }
	for _, iters := range []int{3, 4} {
		var scenarios, adopted, rejected int
		for _, machine := range []string{"fig2", "smp12e5", "smp20e7"} {
			top, err := topology.ByName(machine)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{8, 16, 32, 64} {
				for _, k := range []int{4, 8} {
					for _, vol := range []float64{1 << 8, 1 << 12, 1 << 16, 1 << 20} {
						for _, horizon := range []int{1, 10, 100} {
							ring, cliques := ringMatrix(n, vol), strideClusters(n, k, vol)
							cfg := AdaptiveConfig{Horizon: horizon, WindowIterations: iters}
							var reps [2]*EpochReport
							for side, store := range []func(*comm.Matrix) comm.Affinity{dense, sparse} {
								eng, err := NewEngine(top)
								if err != nil {
									t.Fatal(err)
								}
								rec, err := NewReconciler(eng, Fixed("shifted", store(cliques)), nil, cfg)
								if err != nil {
									t.Fatal(err)
								}
								if err := rec.Prime(Fixed("declared", store(ring))); err != nil {
									t.Fatal(err)
								}
								if reps[side], err = rec.Epoch(); err != nil {
									t.Fatal(err)
								}
							}
							name := fmt.Sprintf("iters=%d %s n=%d k=%d vol=%g horizon=%d", iters, machine, n, k, vol, horizon)
							d, s := reps[0], reps[1]
							if d.Recomputed != s.Recomputed || d.Adopted != s.Adopted ||
								math.Float64bits(d.GainSeconds) != math.Float64bits(s.GainSeconds) ||
								math.Float64bits(d.CostSeconds) != math.Float64bits(s.CostSeconds) ||
								!slices.Equal(d.Assignment.ComputePU, s.Assignment.ComputePU) {
								t.Errorf("%s: dense window recomputed %v adopted %v gain %v cost %v; sparse recomputed %v adopted %v gain %v cost %v",
									name, d.Recomputed, d.Adopted, d.GainSeconds, d.CostSeconds, s.Recomputed, s.Adopted, s.GainSeconds, s.CostSeconds)
							}
							scenarios++
							if d.Adopted {
								adopted++
							} else if d.Recomputed {
								rejected++
							}
						}
					}
				}
			}
		}
		want := map[int][2]int{3: {55, 197}, 4: {53, 199}}[iters]
		if scenarios != 288 || adopted != want[0] || rejected != want[1] {
			t.Fatalf("WindowIterations %d: %d scenarios: %d adopted, %d rejected; want 288: %d adopted, %d rejected",
				iters, scenarios, adopted, rejected, want[0], want[1])
		}
	}
}
