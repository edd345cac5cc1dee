package placement

import (
	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// Built-in strategies: the paper's affinity algorithm, the four
// topology-oblivious environment policies it is compared against, and
// the unbound baseline. All are first-class registry peers.
func init() {
	MustRegister(&treeMatchStrategy{})
	MustRegister(obliviousStrategy{treematch.StrategyCompact})
	MustRegister(obliviousStrategy{treematch.StrategyCompactCores})
	MustRegister(obliviousStrategy{treematch.StrategyScatter})
	MustRegister(obliviousStrategy{treematch.StrategyRoundRobinPU})
	MustRegister(&noneStrategy{})
}

// TreeMatch is the name of the paper's topology-and-communication
// aware strategy (Algorithm 1).
const TreeMatch = "treematch"

// None is the name of the unbound baseline: no binding at all, the OS
// scheduler decides.
const None = "none"

// treeMatchStrategy adapts treematch.MapAffinity: the paper's
// Algorithm 1 with control-thread accounting and oversubscription
// handling, partitioned above Options.PartitionThreshold.
type treeMatchStrategy struct{}

func (treeMatchStrategy) Name() string    { return TreeMatch }
func (treeMatchStrategy) CommAware() bool { return true }

func (s treeMatchStrategy) Map(top *topology.Topology, m comm.Affinity, n int, opt Options) (*Assignment, error) {
	if err := validateRequest(s, top, m, n); err != nil {
		return nil, err
	}
	mp, err := treematch.MapAffinity(top, m, opt)
	if err != nil {
		return nil, err
	}
	return fromMapping(TreeMatch, mp), nil
}

// obliviousStrategy adapts treematch.Place: the environment-variable
// policies (KMP_AFFINITY=compact/scatter, OMP_PROC_BIND=close/spread
// equivalents) that place by machine shape only.
type obliviousStrategy struct {
	s treematch.Strategy
}

func (o obliviousStrategy) Name() string         { return o.s.String() }
func (o obliviousStrategy) CommAware() bool      { return false }
func (o obliviousStrategy) IgnoresOptions() bool { return true }

func (o obliviousStrategy) Map(top *topology.Topology, _ comm.Affinity, n int, _ Options) (*Assignment, error) {
	if err := validateRequest(o, top, nil, n); err != nil {
		return nil, err
	}
	pus, err := treematch.Place(top, n, o.s)
	if err != nil {
		return nil, err
	}
	return &Assignment{Strategy: o.Name(), ComputePU: pus}, nil
}

// noneStrategy is the unbound baseline of every figure: threads run
// wherever the OS scheduler puts them.
type noneStrategy struct{}

func (noneStrategy) Name() string         { return None }
func (noneStrategy) CommAware() bool      { return false }
func (noneStrategy) Unbound() bool        { return true }
func (noneStrategy) IgnoresOptions() bool { return true }

func (s noneStrategy) Map(top *topology.Topology, _ comm.Affinity, n int, _ Options) (*Assignment, error) {
	if err := validateRequest(s, top, nil, n); err != nil {
		return nil, err
	}
	return &Assignment{Strategy: None, Unbound: true}, nil
}
