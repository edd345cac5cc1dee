package treematch

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// groupProcesses partitions the entities of a level into groups of size
// arity, maximising the communication volume kept inside groups
// (function GroupProcesses of Algorithm 1). The order must be divisible
// by arity. For at most limit entities an optimal exponential
// algorithm runs on a densified copy of the level; beyond that the
// greedy engine runs on the CSR rows, as in the paper ("depending on
// the problem size, we go from an optimal but exponential algorithm to
// a greedy one").
//
// Groups come back normalized (members ascending, groups ordered by
// smallest member) and freshly allocated, the caller's to keep.
func groupProcesses(c *symCSR, arity, limit int, ws *mapWorkspace) ([][]int, error) {
	n := c.order()
	if arity < 1 {
		return nil, fmt.Errorf("treematch: arity %d < 1", arity)
	}
	if n%arity != 0 {
		return nil, fmt.Errorf("treematch: %d entities not divisible by arity %d", n, arity)
	}
	var groups [][]int
	switch {
	case arity == n:
		g := make([]int, n)
		for i := range g {
			g[i] = i
		}
		groups = [][]int{g}
	case arity > 1 && n <= limit && n <= 20:
		groups = groupExhaustive(c.densify(&ws.slab), n, arity, ws)
	default:
		ident := grow(&ws.ident, n)
		for i := range ident {
			ident[i] = i
		}
		ws.gr.use(c)
		groups = ws.gr.split(ident, n/arity, true)
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

// groupExhaustive finds the optimal partition of the n entities of the
// row-major slab w by dynamic programming over subsets: dp[mask] is the
// best intra-group volume achievable when partitioning exactly the
// entities in mask into groups of size arity.
//
// The candidate-group weights are memoised up front: weight[mask] is
// the intra-volume of mask, built incrementally as
// weight(sub|low) = weight(sub) + one row of pair weights — O(2^n * n)
// once, instead of an O(n^2) rescan per DP candidate. The subset
// enumeration walks combinations in workspace buffers and allocates
// nothing per call.
func groupExhaustive(w []float64, n, arity int, ws *mapWorkspace) [][]int {
	full := 1<<uint(n) - 1 // caller guarantees n <= 20

	weight := grow(&ws.weight, full+1)
	weight[0] = 0
	for mask := 1; mask <= full; mask++ {
		low := mask & -mask
		rest := mask &^ low
		lo := bits.TrailingZeros(uint(mask))
		row := w[lo*n : (lo+1)*n]
		wt := weight[rest]
		for t := rest; t != 0; t &= t - 1 {
			wt += row[bits.TrailingZeros(uint(t))]
		}
		weight[mask] = wt
	}

	dp := grow(&ws.dp, full+1)
	choice := grow(&ws.choice, full+1)
	for i := range dp {
		dp[i] = math.Inf(-1)
	}
	dp[0] = 0

	size := arity - 1 // caller guarantees 1 < arity < n, so size >= 1
	pos := grow(&ws.pos, n)
	idx := grow(&ws.idx, size)

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

// grouper is the greedy engine of both grouping steps: Map's
// GroupProcesses on each level, and the partitioned path's split of a
// task subset among child subtrees. It seeds each group with the
// heaviest fully-unassigned pair and grows it by the candidate with the
// strongest connection, lowest id first on ties, or the lowest
// unassigned task when nothing left talks — O(nnz log nnz) on the CSR
// rows of the subset. Seeds come from one radix sort of the pairs (on
// clustered inputs nearly all are consumed, so it beats a heap pop per
// pair); candidates from a lazily-validated heap fed by each admitted
// row, an entry being stale once its task is assigned or its affinity
// has grown. aff sums in admission order. Between calls aff is all zero
// and assigned all false; member is epoch-stamped.
type grouper struct {
	csr      *symCSR
	member   []int // member[g] == epoch: g belongs to the current subset
	epoch    int
	aff      []float64
	assigned []bool
	pairs    []pair
	pairTmp  []pair
	cand     []candEntry
	touched  []int // tasks whose aff is nonzero
}

// use points the grouper at c, sizing its per-task state.
func (gr *grouper) use(c *symCSR) {
	gr.csr = c
	n := c.order()
	if cap(gr.aff) < n {
		gr.member = make([]int, n)
		gr.aff = make([]float64, n)
		gr.assigned = make([]bool, n)
	}
	gr.member, gr.aff, gr.assigned = gr.member[:n], gr.aff[:n], gr.assigned[:n]
}

// split partitions tasks (ascending ids) into parts groups of
// ceil(len/parts) members (trailing groups smaller once tasks run out,
// exactly as zero-affinity padding would fill them last). When fresh,
// each group's affinity starts from zero — Algorithm 1's grouping step;
// otherwise it accumulates over every group built so far — the
// partitioner's weak-cut rule. Returned groups have ascending members
// and are ordered by smallest member; empty groups sort last.
func (gr *grouper) split(tasks []int, parts int, fresh bool) [][]int {
	c := gr.csr
	size := (len(tasks) + parts - 1) / parts
	gr.epoch++
	for _, g := range tasks {
		gr.member[g] = gr.epoch
	}
	pairs := gr.pairs[:0]
	for _, i := range tasks {
		for k := c.ptr[i]; k < c.ptr[i+1]; k++ {
			if j := c.col[k]; j > i && gr.member[j] == gr.epoch {
				pairs = append(pairs, pair{i: int32(i), j: int32(j), vol: c.val[k]})
			}
		}
	}
	pairs, gr.pairTmp = sortPairs(pairs, gr.pairTmp)
	gr.pairs = pairs

	cand, touched := gr.cand[:0], gr.touched[:0]
	flat := make([]int, 0, len(tasks))
	admit := func(e int) {
		gr.assigned[e] = true
		flat = append(flat, e)
		for k := c.ptr[e]; k < c.ptr[e+1]; k++ {
			j := c.col[k]
			if gr.member[j] != gr.epoch || gr.assigned[j] {
				continue
			}
			if gr.aff[j] == 0 {
				touched = append(touched, j)
			}
			gr.aff[j] += c.val[k]
			cand = pushCand(cand, candEntry{gr.aff[j], j})
		}
	}
	seedAt, low := 0, 0
	lowest := func() int {
		for gr.assigned[tasks[low]] {
			low++
		}
		return tasks[low]
	}
	groups := make([][]int, 0, parts)
	for len(groups) < parts {
		start := len(flat)
		if fresh {
			for _, k := range touched {
				gr.aff[k] = 0
			}
			cand, touched = cand[:0], touched[:0]
		}
		// Seed with the heaviest fully-unassigned pair, else the lowest
		// unassigned task.
		for size >= 2 && seedAt < len(pairs) && len(flat) < len(tasks) {
			pr := pairs[seedAt]
			seedAt++
			if !gr.assigned[pr.i] && !gr.assigned[pr.j] {
				admit(int(pr.i))
				admit(int(pr.j))
				break
			}
		}
		if len(flat) == start && len(flat) < len(tasks) {
			admit(lowest())
		}
		for len(flat)-start < size && len(flat) < len(tasks) {
			best := -1
			for len(cand) > 0 {
				top := cand[0]
				cand = popCand(cand)
				if !gr.assigned[top.idx] && gr.aff[top.idx] == top.vol {
					best = top.idx
					break
				}
			}
			if best < 0 {
				best = lowest()
			}
			admit(best)
		}
		g := flat[start:len(flat):len(flat)]
		sort.Ints(g)
		groups = append(groups, g)
	}
	for _, k := range touched {
		gr.aff[k] = 0
	}
	for _, g := range tasks {
		gr.assigned[g] = false
	}
	gr.cand, gr.touched = cand[:0], touched[:0]
	sort.SliceStable(groups, func(a, b int) bool {
		ga, gb := groups[a], groups[b]
		if len(ga) == 0 || len(gb) == 0 {
			return len(gb) == 0 && len(ga) > 0
		}
		return ga[0] < gb[0]
	})
	return groups
}
