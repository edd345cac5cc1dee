package perfsim_test

import (
	"testing"

	"orwlplace/internal/apps/livermore"
	"orwlplace/internal/apps/matmul"
	"orwlplace/internal/apps/tracking"
	"orwlplace/internal/perfsim"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// TestSimulateMatchesDenseReferenceOnProfiles holds Simulate to the
// dense reference on every application profile the paper's figures
// simulate, on every reference machine: each is built by
// profile.Builder with a symmetric pattern, so the results must agree
// bit for bit under a TreeMatch binding (with its control threads) and
// under the OS scheduler's.
func TestSimulateMatchesDenseReferenceOnProfiles(t *testing.T) {
	for _, machine := range []string{"fig2", "smp12e5", "smp20e7"} {
		top, err := topology.ByName(machine)
		if err != nil {
			t.Fatal(err)
		}
		cores := top.NumCores()
		var workloads []*perfsim.Workload
		for _, build := range []func() (*perfsim.Workload, error){
			func() (*perfsim.Workload, error) { return livermore.Profile(16384, cores, 100) },
			func() (*perfsim.Workload, error) { return livermore.ProfileOpenMP(16384, cores, 100) },
			func() (*perfsim.Workload, error) { return matmul.ProfileORWL(16384, cores) },
			func() (*perfsim.Workload, error) { return matmul.ProfileMKL(16384, cores) },
			func() (*perfsim.Workload, error) { return tracking.PaperConfig(tracking.HD).Profile(1000) },
		} {
			w, err := build()
			if err != nil {
				t.Fatal(err)
			}
			workloads = append(workloads, w)
		}
		for _, w := range workloads {
			mp, err := treematch.Map(top, w.Comm, treematch.Options{ControlThreads: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, pl := range []*perfsim.Placement{
				{ComputePU: mp.ComputePU, ControlPU: mp.ControlPU, LocalAlloc: true},
				{Dynamic: &perfsim.DynamicPolicy{Policy: perfsim.PolicyFor(top), Seed: 3}},
			} {
				got, err := perfsim.Simulate(top, w, pl)
				if err != nil {
					t.Fatal(err)
				}
				want, err := perfsim.SimulateRef(top, w, pl)
				if err != nil {
					t.Fatal(err)
				}
				if *got != *want {
					t.Errorf("%s on %s (dynamic %v): got %+v, reference %+v", w.Name, machine, pl.Dynamic != nil, *got, *want)
				}
			}
		}
	}
}
