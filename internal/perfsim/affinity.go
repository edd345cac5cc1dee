package perfsim

import (
	"fmt"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// CommSeconds models the per-iteration communication time of a binding
// under a traffic pattern, walking only the pattern's nonzeros: each
// symmetrized pair volume pays the latency of the channel between its
// endpoints' PUs, with the same constants Simulate charges (cache-line
// granularity, memory-level parallelism, remote-NUMA inflation). It is
// the sub-O(n²) gain signal for adaptive re-placement at fleet scale,
// where materializing the dense matrix a full Simulate run needs would
// defeat the sparse path.
//
// The result is comparable across bindings of the same workload (the
// quantity a reconciler differences), not with Result.Seconds of a full
// simulation — compute, streaming and channel saturation are
// deliberately left out.
func CommSeconds(top *topology.Topology, a comm.Affinity, computePU []int) (float64, error) {
	return commSeconds(top, a, computePU, nil)
}

// CommSecondsGain returns CommSeconds(top, a, from) − CommSeconds(top,
// a, to) in one walk that charges only the pairs with an endpoint whose
// PU differs: every other pair pays the same latency under both, so it
// is skipped before its mirror lookup. It refuses an invalid binding
// with CommSeconds' error, from before to.
func CommSecondsGain(top *topology.Topology, a comm.Affinity, from, to []int) (float64, error) {
	if to == nil {
		to = []int{} // refused like any short binding, not read as "none"
	}
	return commSeconds(top, a, from, to)
}

// commSeconds walks a's nonzeros once and charges each symmetrized pair
// volume the latency between its endpoints' PUs under from, less the
// latency under to when to is non-nil.
func commSeconds(top *topology.Topology, a comm.Affinity, from, to []int) (float64, error) {
	n, pus := a.Order(), top.PUs()
	for k, b := range [2][]int{from, to} {
		if k == 1 && to == nil {
			break // CommSeconds: no second binding
		}
		if len(b) < n {
			return 0, fmt.Errorf("perfsim: comm seconds for %d entities, binding covers %d", n, len(b))
		}
		for i, pu := range b[:n] {
			if pu < 0 || pu >= len(pus) {
				return 0, fmt.Errorf("perfsim: entity %d on invalid PU %d", i, pu)
			}
		}
	}
	clockHz := top.Attrs.ClockMHz * 1e6
	if clockHz <= 0 {
		return 0, fmt.Errorf("perfsim: topology %s has no clock rate", top.Attrs.Name)
	}
	var total float64
	// One visitor for every row: a literal inside the loop would be
	// allocated per row, since ForEachRow is an interface call.
	var i int
	visit := func(j int, v float64) {
		if to != nil && from[i] == to[i] && from[j] == to[j] {
			return // the pair pays the same latency under both bindings
		}
		switch {
		case j > i:
			v += a.At(j, i)
		case j == i || a.At(j, i) != 0:
			return // the diagonal, or a pair its upper cell charged
		}
		latency := latencyCycles(top, pus[from[i]], pus[from[j]])
		if to != nil {
			latency -= latencyCycles(top, pus[to[i]], pus[to[j]])
		}
		total += v * latency
	}
	for i = 0; i < n; i++ {
		a.ForEachRow(i, visit)
	}
	return total / CacheLine / commMLP / clockHz, nil
}

// latencyCycles is the latency, in core cycles, of the channel between
// two PUs.
func latencyCycles(top *topology.Topology, pi, pj *topology.Object) float64 {
	attrs := &top.Attrs
	switch topology.LocalityOf(pi, pj) {
	case topology.SamePU, topology.SameCore, topology.SameL2:
		return attrs.L2LatencyCycles
	case topology.SameL3:
		return attrs.L3LatencyCycles
	case topology.SameNUMA:
		return attrs.DRAMLatencyCycles
	case topology.SameGroup:
		return attrs.DRAMLatencyCycles * attrs.RemoteNUMAFactor
	default:
		return attrs.DRAMLatencyCycles * attrs.CrossGroupFactor
	}
}
