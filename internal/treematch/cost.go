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
func Cost(top *topology.Topology, m *comm.Matrix, computePU []int) (float64, error) {
	cost, _, err := Quality(top, m, computePU)
	return cost, err
}

// Quality evaluates a placement in one pass over the upper triangle:
// cost is Cost, and crossNUMA the symmetrized volume exchanged between
// entities placed on different NUMA nodes — the quantity the affinity
// module is designed to shrink. A communicating pair looks up its PUs'
// common ancestor once and derives both its hop distance and its
// locality from it.
func Quality(top *topology.Topology, m *comm.Matrix, computePU []int) (cost, crossNUMA float64, err error) {
	n := m.Order()
	if len(computePU) != n {
		return 0, 0, fmt.Errorf("treematch: placement for %d entities, matrix order %d", len(computePU), n)
	}
	pus := top.PUs()
	for i, pu := range computePU {
		if pu < 0 || pu >= len(pus) {
			return 0, 0, fmt.Errorf("treematch: entity %d bound to invalid PU %d", i, pu)
		}
	}
	for i := 0; i < n; i++ {
		row, a := m.RowView(i), pus[computePU[i]]
		for j := i + 1; j < n; j++ {
			v := row[j] + m.At(j, i)
			if v == 0 {
				continue
			}
			b := pus[computePU[j]]
			ca := topology.CommonAncestor(a, b)
			hops := -1
			if ca != nil {
				hops = a.Depth() + b.Depth() - 2*ca.Depth()
			}
			cost += v * float64(hops)
			if a != b && topology.LocalityUnder(ca) > topology.SameL3 {
				crossNUMA += v
			}
		}
	}
	return cost, crossNUMA, nil
}
