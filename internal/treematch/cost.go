package treematch

import (
	"fmt"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// Cost evaluates a placement: the sum over entity pairs of the
// symmetrized communication volume weighted by the hop distance between
// their PUs in the topology tree. Lower is better; it is the objective
// TreeMatch minimises.
func Cost(top *topology.Topology, a comm.Affinity, computePU []int) (float64, error) {
	cost, _, err := Quality(top, a, computePU)
	return cost, err
}

// Quality evaluates a placement in one pass over the symmetrized
// nonzeros, pairs (i, j) with i < j in row-major order: cost is Cost,
// and crossNUMA the symmetrized volume exchanged between entities
// placed on different NUMA nodes — the quantity the affinity module is
// designed to shrink. A communicating pair looks up its PUs' common
// ancestor once and derives both its hop distance and its locality from
// it. Unlike Map, Quality accepts any volumes: it measures, it does not
// decide.
func Quality(top *topology.Topology, a comm.Affinity, computePU []int) (cost, crossNUMA float64, err error) {
	if comm.NilAffinity(a) {
		return 0, 0, fmt.Errorf("treematch: nil communication matrix")
	}
	n := a.Order()
	if len(computePU) != n {
		return 0, 0, fmt.Errorf("treematch: placement for %d entities, matrix order %d", len(computePU), n)
	}
	pus := top.PUs()
	for i, pu := range computePU {
		if pu < 0 || pu >= len(pus) {
			return 0, 0, fmt.Errorf("treematch: entity %d bound to invalid PU %d", i, pu)
		}
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	sym := &ws.lvl[0]
	ws.sym.symmetrize(sym, a, nil, nil, false) // cannot fail unchecked
	for i := 0; i < n; i++ {
		pa := pus[computePU[i]]
		for k := sym.ptr[i]; k < sym.ptr[i+1]; k++ {
			j := sym.col[k]
			if j < i {
				continue
			}
			v, pb := sym.val[k], pus[computePU[j]]
			ca := topology.CommonAncestor(pa, pb)
			hops := -1
			if ca != nil {
				hops = pa.Depth() + pb.Depth() - 2*ca.Depth()
			}
			cost += v * float64(hops)
			if pa != pb && topology.LocalityUnder(ca) > topology.SameL3 {
				crossNUMA += v
			}
		}
	}
	return cost, crossNUMA, nil
}
