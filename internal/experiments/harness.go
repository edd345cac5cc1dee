package experiments

import (
	"fmt"
	"sync"

	"orwlplace/internal/perfsim"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// dynamicSeed fixes the affinity-oblivious scheduler permutation so
// every regeneration produces the same numbers.
const dynamicSeed = 42

// Engines are memoised per machine signature: every figure, table and
// the summary regenerate overlapping workloads (k23Run and matmulRun
// re-derive identical matrices for the tables and the summary), so a
// shared mapping cache makes the whole evaluation pay each TreeMatch
// run once.
var (
	enginesMu sync.Mutex
	engines   = map[uint64]*placement.Engine{}
)

func engineFor(top *topology.Topology) *placement.Engine {
	sig := placement.Signature(top)
	enginesMu.Lock()
	defer enginesMu.Unlock()
	if e, ok := engines[sig]; ok {
		return e
	}
	e, err := placement.NewEngine(top)
	if err != nil {
		panic(err) // machines come from topology constructors, never nil
	}
	engines[sig] = e
	return e
}

// runAffinity maps a workload with the paper's affinity module
// (TreeMatch with control-thread accounting) and simulates it.
func runAffinity(top *topology.Topology, w *perfsim.Workload) (*perfsim.Result, *treematch.Mapping, error) {
	eng := engineFor(top)
	res, a, err := eng.Simulate(placement.TreeMatch, w, placement.Options{ControlThreads: true}, dynamicSeed)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: mapping %q: %w", w.Name, err)
	}
	return res, a.Mapping(eng.Topology()), nil
}

// runDynamic simulates an unbound run under the machine's native OS
// scheduling policy — the strategy table's none baseline.
func runDynamic(top *topology.Topology, w *perfsim.Workload) (*perfsim.Result, error) {
	res, _, err := engineFor(top).Simulate(placement.None, w, placement.Options{}, dynamicSeed)
	return res, err
}

// runStrategy simulates a run bound by one named strategy.
func runStrategy(top *topology.Topology, w *perfsim.Workload, name string) (*perfsim.Result, error) {
	res, _, err := engineFor(top).Simulate(name, w, placement.Options{}, dynamicSeed)
	return res, err
}

// bestOblivious evaluates every matrix-oblivious environment policy
// and returns the fastest run with its name — how the paper reports
// "the best OpenMP/MKL environment binding found". The candidate runs
// are independent, so they fan out across goroutines; the winner is
// picked from the collected results in comparison-row order, keeping
// the outcome deterministic.
func bestOblivious(top *topology.Topology, w *perfsim.Workload) (*perfsim.Result, string, error) {
	names := placement.ObliviousNames()
	results, err := runStrategiesParallel(top, w, names, nil)
	if err != nil {
		return nil, "", err
	}
	var best *perfsim.Result
	var bestName string
	for i, res := range results {
		if best == nil || res.Seconds < best.Seconds {
			best, bestName = res, names[i]
		}
	}
	return best, bestName, nil
}

// runStrategiesParallel simulates one workload under several
// strategies concurrently, returning the results in input order. opts
// maps a strategy name to non-default options (nil for all-default).
// The engine underneath is concurrency-safe and singleflights
// duplicate keys, so the fan-out costs no duplicate computes.
func runStrategiesParallel(top *topology.Topology, w *perfsim.Workload, names []string, opts map[string]placement.Options) ([]*perfsim.Result, error) {
	eng := engineFor(top)
	results := make([]*perfsim.Result, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			results[i], _, errs[i] = eng.Simulate(name, w, opts[name], dynamicSeed)
		}(i, name)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Machines returns the two simulated testbeds of Table I.
func Machines() []*topology.Topology {
	return []*topology.Topology{topology.SMP12E5(), topology.SMP20E7()}
}
