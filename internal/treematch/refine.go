package treematch

import "orwlplace/internal/comm"

// RefineSwap improves a grouping by hill climbing: it repeatedly
// performs the inter-group entity swap with the largest gain in
// intra-group volume until no swap helps or maxRounds passes have run.
// It is an optional post-pass on the greedy engine, recovering part of
// the gap to the optimal exponential engine at linear-ish cost
// (an ablation target of DESIGN.md §5, extending the paper's
// "optimal … to greedy" engine choice).
//
// The input groups are not modified; the refined grouping is returned
// normalized (sorted members, groups ordered by smallest member).
func RefineSwap(m *comm.Matrix, groups [][]int, maxRounds int) [][]int {
	sym := m.Symmetrized()
	n := sym.Order()
	w := make([]float64, 0, n*n)
	for i := 0; i < n; i++ {
		w = append(w, sym.RowView(i)...)
	}
	return refineSwapSym(w, n, groups, maxRounds)
}

// refineSwapSym is RefineSwap on the row-major slab w of an order-n
// symmetric matrix, read directly — the pipeline in Map calls it on the
// densified level matrix.
func refineSwapSym(w []float64, n int, groups [][]int, maxRounds int) [][]int {
	out := make([][]int, len(groups))
	for i, g := range groups {
		out[i] = append([]int(nil), g...)
	}
	// conn(e, g) = total volume between e and the members of g.
	conn := func(e int, g []int) float64 {
		var s float64
		for _, x := range g {
			if x != e {
				s += w[e*n+x]
			}
		}
		return s
	}
	for round := 0; round < maxRounds; round++ {
		bestGain := 0.0
		var bg1, bi1, bg2, bi2 int
		for g1 := 0; g1 < len(out); g1++ {
			for g2 := g1 + 1; g2 < len(out); g2++ {
				for i1, a := range out[g1] {
					for i2, b := range out[g2] {
						gain := conn(b, out[g1]) - w[a*n+b] + conn(a, out[g2]) - w[a*n+b] -
							conn(a, out[g1]) - conn(b, out[g2])
						if gain > bestGain+1e-12 {
							bestGain = gain
							bg1, bi1, bg2, bi2 = g1, i1, g2, i2
						}
					}
				}
			}
		}
		if bestGain <= 0 {
			break
		}
		out[bg1][bi1], out[bg2][bi2] = out[bg2][bi2], out[bg1][bi1]
	}
	normalizeGroups(out)
	return out
}
