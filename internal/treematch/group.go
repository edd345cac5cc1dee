package treematch

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"orwlplace/internal/comm"
)

// GroupProcesses partitions the m.Order() entities into groups of size
// arity, maximising the communication volume kept inside groups
// (function GroupProcesses of Algorithm 1). The order must be divisible
// by arity. For at most exhaustiveLimit entities an optimal exponential
// algorithm runs; beyond that a greedy engine is used, as in the paper
// ("depending on the problem size, we go from an optimal but exponential
// algorithm to a greedy one").
//
// Groups are returned with members in increasing order and the group
// list sorted by smallest member, so results are deterministic. The
// returned slices are freshly allocated and the caller's to keep.
func GroupProcesses(m *comm.Matrix, arity, exhaustiveLimit int) ([][]int, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	return groupProcesses(m, arity, exhaustiveLimit, ws, false)
}

// groupProcesses is GroupProcesses running on a caller-provided
// workspace, so the per-level calls inside Map share one scratch set.
// isSym declares the input already symmetric: the engines then read
// its rows directly instead of building a symmetrized copy per level.
// (Symmetrizing a symmetric matrix doubles every entry — a uniform
// positive scaling that cannot change any greedy or DP selection, so
// both paths pick identical groups.)
func groupProcesses(m *comm.Matrix, arity, exhaustiveLimit int, ws *mapWorkspace, isSym bool) ([][]int, error) {
	n := m.Order()
	if arity < 1 {
		return nil, fmt.Errorf("treematch: arity %d < 1", arity)
	}
	if n%arity != 0 {
		return nil, fmt.Errorf("treematch: %d entities not divisible by arity %d", n, arity)
	}
	var groups [][]int
	switch {
	case arity == 1:
		flat := make([]int, n)
		groups = make([][]int, n)
		for i := range groups {
			flat[i] = i
			groups[i] = flat[i : i+1]
		}
	case arity == n:
		g := make([]int, n)
		for i := range g {
			g[i] = i
		}
		groups = [][]int{g}
	case n <= exhaustiveLimit && n <= 20:
		groups = groupExhaustive(m, arity, ws, isSym)
	default:
		groups = groupGreedy(m, arity, ws, isSym)
	}
	normalizeGroups(groups)
	return groups, nil
}

// normalizeGroups sorts members within each group and groups by their
// smallest member.
func normalizeGroups(groups [][]int) {
	for _, g := range groups {
		sort.Ints(g)
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a][0] < groups[b][0] })
}

// IntraGroupVolume returns the total symmetrized volume kept inside the
// groups — the objective GroupProcesses maximises.
func IntraGroupVolume(m *comm.Matrix, groups [][]int) float64 {
	var total float64
	for _, g := range groups {
		for x := 0; x < len(g); x++ {
			for y := x + 1; y < len(g); y++ {
				total += m.At(g[x], g[y]) + m.At(g[y], g[x])
			}
		}
	}
	return total
}

// groupExhaustive finds the optimal partition by dynamic programming
// over subsets: dp[mask] is the best intra-group volume achievable when
// partitioning exactly the entities in mask into groups of size arity.
//
// The candidate-group weights are memoised up front: weight[mask] is
// the symmetrized intra-volume of mask, built incrementally as
// weight(sub|low) = weight(sub) + one row of pair weights — O(2^n * n)
// once, instead of an O(n^2) rescan per DP candidate. The subset
// enumeration walks combinations in workspace buffers and allocates
// nothing per call.
func groupExhaustive(m *comm.Matrix, arity int, ws *mapWorkspace, isSym bool) [][]int {
	n := m.Order() // caller guarantees n <= 20
	sym := m
	if !isSym {
		sym = m.SymmetrizedInto(ws.sym)
	}
	full := 1<<uint(n) - 1

	weight := growFloats(&ws.weight, full+1)
	weight[0] = 0
	for mask := 1; mask <= full; mask++ {
		low := mask & -mask
		rest := mask &^ low
		row := sym.RowView(bits.TrailingZeros(uint(mask)))
		w := weight[rest]
		for t := rest; t != 0; t &= t - 1 {
			w += row[bits.TrailingZeros(uint(t))]
		}
		weight[mask] = w
	}

	dp := growFloats(&ws.dp, full+1)
	choice := growInts(&ws.choice, full+1)
	for i := range dp {
		dp[i] = math.Inf(-1)
	}
	dp[0] = 0

	size := arity - 1 // caller guarantees 1 < arity < n, so size >= 1
	pos := growInts(&ws.pos, n)
	idx := growInts(&ws.idx, size)

	// Enumerate masks in increasing order; only masks whose popcount is
	// a multiple of arity are reachable. Each mask anchors on its lowest
	// set bit so no group arrangement is enumerated twice.
	for mask := 1; mask <= full; mask++ {
		if bits.OnesCount(uint(mask))%arity != 0 {
			continue
		}
		low := mask & -mask
		rest := mask &^ low
		np := 0
		for t := rest; t != 0; t &= t - 1 {
			pos[np] = bits.TrailingZeros(uint(t))
			np++
		}
		if np < size {
			continue
		}
		// Walk the size-combinations of pos in place.
		for i := 0; i < size; i++ {
			idx[i] = i
		}
		for {
			sub := 0
			for _, k := range idx[:size] {
				sub |= 1 << uint(pos[k])
			}
			g := sub | low
			if prev := dp[mask&^g]; !math.IsInf(prev, -1) {
				if cand := prev + weight[g]; cand > dp[mask] {
					dp[mask] = cand
					choice[mask] = g
				}
			}
			// Next combination.
			i := size - 1
			for i >= 0 && idx[i] == np-size+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < size; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}

	flat := make([]int, 0, n)
	groups := make([][]int, 0, n/arity)
	for mask := full; mask != 0; {
		g := choice[mask]
		start := len(flat)
		for t := g; t != 0; t &= t - 1 {
			flat = append(flat, bits.TrailingZeros(uint(t)))
		}
		groups = append(groups, flat[start:])
		mask &^= g
	}
	return groups
}

// groupGreedy builds groups around the heaviest communicating pairs and
// grows each group by repeatedly adding the unassigned entity with the
// strongest connection to the group.
//
// The engine is incremental: affinity[k] holds the volume between k and
// the current group's members, updated in O(n) per admitted member
// instead of rescanning every candidate against every member. Seeds
// come from a lazily-popped max-heap of the nonzero pairs — heapify is
// O(#nonzero) and only the pairs actually consumed pay the log cost,
// against sorting the full pair list up front.
func groupGreedy(m *comm.Matrix, arity int, ws *mapWorkspace, isSym bool) [][]int {
	n := m.Order()
	sym := m
	if !isSym {
		sym = m.SymmetrizedInto(ws.sym)
	}
	assigned := growBools(&ws.assigned, n)
	clear(assigned)
	aff := growFloats(&ws.affinity, n)
	// cand lists the still-unassigned entities in increasing order; the
	// selection pass compacts it in place, so late groups scan only the
	// remaining candidates instead of all n entities every time.
	cand := growInts(&ws.cand, n)
	for i := range cand {
		cand[i] = i
	}

	heap := ws.pairs[:0]
	for i := 0; i < n; i++ {
		row := sym.RowView(i)
		for j := i + 1; j < n; j++ {
			if v := row[j]; v > 0 {
				heap = append(heap, comm.Pair{I: i, J: j, Volume: v})
			}
		}
	}
	ws.pairs = heap // keep the grown backing array for the next call
	heapifyPairs(heap)

	flat := make([]int, 0, n)
	groups := make([][]int, 0, n/arity)
	remaining := n
	for remaining > 0 {
		start := len(flat)
		// Seed with the heaviest fully-unassigned pair.
		for len(heap) > 0 {
			var pr comm.Pair
			pr, heap = popPair(heap)
			if !assigned[pr.I] && !assigned[pr.J] {
				flat = append(flat, pr.I, pr.J)
				assigned[pr.I], assigned[pr.J] = true, true
				break
			}
		}
		if len(flat) == start {
			// No communicating pair left: seed with the lowest
			// unassigned entity.
			for i := 0; i < n; i++ {
				if !assigned[i] {
					flat = append(flat, i)
					assigned[i] = true
					break
				}
			}
		}
		g := flat[start:]
		clear(aff)
		for _, e := range g {
			row := sym.RowView(e)
			for k, v := range row {
				aff[k] += v
			}
		}
		// Grow to the target size. Each selection pass compacts cand,
		// dropping entities assigned since the last pass; the ascending
		// scan keeps the lowest index as tie-winner, like the full scan
		// it replaces.
		for len(g) < arity {
			best, bestVol := -1, math.Inf(-1)
			w := 0
			for _, k := range cand {
				if assigned[k] {
					continue
				}
				cand[w] = k
				w++
				if aff[k] > bestVol {
					best, bestVol = k, aff[k]
				}
			}
			cand = cand[:w]
			flat = append(flat, best)
			g = flat[start:]
			assigned[best] = true
			row := sym.RowView(best)
			for k, v := range row {
				aff[k] += v
			}
		}
		remaining -= len(g)
		groups = append(groups, g)
	}
	return groups
}
