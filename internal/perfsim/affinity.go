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
	n := a.Order()
	if len(computePU) < n {
		return 0, fmt.Errorf("perfsim: comm seconds for %d entities, binding covers %d", n, len(computePU))
	}
	pus := top.PUs()
	for i := 0; i < n; i++ {
		if pu := computePU[i]; pu < 0 || pu >= len(pus) {
			return 0, fmt.Errorf("perfsim: entity %d on invalid PU %d", i, pu)
		}
	}
	attrs := top.Attrs
	clockHz := attrs.ClockMHz * 1e6
	if clockHz <= 0 {
		return 0, fmt.Errorf("perfsim: topology %s has no clock rate", top.Attrs.Name)
	}
	var total float64
	charge := func(i, j int, vol float64) {
		pi, pj := pus[computePU[i]], pus[computePU[j]]
		var latency float64
		switch topology.LocalityOf(pi, pj) {
		case topology.SamePU, topology.SameCore, topology.SameL2:
			latency = attrs.L2LatencyCycles
		case topology.SameL3:
			latency = attrs.L3LatencyCycles
		case topology.SameNUMA:
			latency = attrs.DRAMLatencyCycles
		case topology.SameGroup:
			latency = attrs.DRAMLatencyCycles * attrs.RemoteNUMAFactor
		default:
			latency = attrs.DRAMLatencyCycles * attrs.CrossGroupFactor
		}
		total += (vol / CacheLine) * latency / commMLP / clockHz
	}
	// One visitor for every row: a literal inside the loop would be
	// allocated per row, since ForEachRow is an interface call.
	var i int
	visit := func(j int, v float64) {
		switch {
		case j > i:
			charge(i, j, v+a.At(j, i))
		case j < i && a.At(j, i) == 0:
			// The mirror entry is zero, so this pair was invisible
			// from row j: charge it here.
			charge(j, i, v)
		}
	}
	for i = 0; i < n; i++ {
		a.ForEachRow(i, visit)
	}
	return total, nil
}
