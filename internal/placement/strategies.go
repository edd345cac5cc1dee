package placement

import (
	"fmt"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// TreeMatch is the name of the paper's topology-and-communication
// aware strategy (Algorithm 1).
const TreeMatch = "treematch"

// None is the name of the unbound baseline: no binding at all, the OS
// scheduler decides.
const None = "none"

// policies are the topology-oblivious environment policies the paper
// compares the affinity module against (KMP_AFFINITY=compact/scatter,
// OMP_PROC_BIND=close/spread equivalents), in comparison-row order.
var policies = []treematch.Strategy{
	treematch.StrategyCompact,
	treematch.StrategyCompactCores,
	treematch.StrategyScatter,
	treematch.StrategyRoundRobinPU,
}

// Names returns every strategy name in comparison-row order: TreeMatch,
// the environment policies, then the unbound baseline None.
func Names() []string {
	return append(append([]string{TreeMatch}, ObliviousNames()...), None)
}

// ObliviousNames returns the bound, matrix-oblivious strategies — the
// environment-variable policies (compact, scatter, ...) the paper
// compares the affinity module against.
func ObliviousNames() []string {
	names := make([]string, len(policies))
	for i, s := range policies {
		names[i] = s.String()
	}
	return names
}

// policy resolves an environment policy by name.
func policy(name string) (treematch.Strategy, bool) {
	for _, s := range policies {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// mapStrategy runs the named strategy: TreeMatch maps m through
// treematch.MapAffinity (partitioned above opt.PartitionThreshold),
// None leaves the n entities to the OS scheduler, and an environment
// policy places them by machine shape alone. The name is known and m
// is non-nil for TreeMatch; the engine checks both before its cache.
func mapStrategy(top *topology.Topology, name string, m comm.Affinity, n int, opt Options) (*Assignment, error) {
	if n <= 0 {
		return nil, fmt.Errorf("placement: %s: need at least one entity, got %d", name, n)
	}
	switch name {
	case TreeMatch:
		mp, err := treematch.MapAffinity(top, m, opt)
		if err != nil {
			return nil, err
		}
		return fromMapping(TreeMatch, mp), nil
	case None:
		return &Assignment{Strategy: None, Unbound: true}, nil
	}
	s, _ := policy(name)
	pus, err := treematch.Place(top, n, s)
	if err != nil {
		return nil, err
	}
	return &Assignment{Strategy: name, ComputePU: pus}, nil
}
