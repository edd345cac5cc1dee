package placement

import (
	"orwlplace/internal/perfsim"
)

// SimPlacement converts an assignment into the performance
// simulator's placement: bound strategies get a static binding with
// local first-touch allocation, the unbound baseline the machine's
// native scheduling policy (seeded for reproducibility). This is the
// bridge every evaluation front end crosses, so figures, tables and
// the simulate tool all cost a strategy the same way.
func (e *Engine) SimPlacement(a *Assignment, seed int64) *perfsim.Placement {
	if a == nil || a.Unbound {
		return &perfsim.Placement{
			Dynamic: &perfsim.DynamicPolicy{Policy: perfsim.PolicyFor(e.top), Seed: seed},
		}
	}
	return &perfsim.Placement{
		ComputePU:  a.ComputePU,
		ControlPU:  a.ControlPU,
		LocalAlloc: true,
	}
}

// Simulate costs the named strategy on a workload: compute (or fetch
// from cache) the assignment, in one run at any order, then run the
// performance model under it.
func (e *Engine) Simulate(strategy string, w *perfsim.Workload, opt Options, seed int64) (*perfsim.Result, *Assignment, error) {
	opt.PartitionThreshold = -1
	a, _, err := e.ComputeHinted(strategy, w.Comm, 0, len(w.Threads), opt)
	if err != nil {
		return nil, nil, err
	}
	res, err := perfsim.Simulate(e.top, w, e.SimPlacement(a, seed))
	if err != nil {
		return nil, nil, err
	}
	return res, a, nil
}
