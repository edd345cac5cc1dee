package treematch

import (
	"fmt"
	"math"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// The dense mapping pipeline as it ran before the CSR engine, kept as
// the reference the engine must reproduce bit for bit: refMap is the
// old Map, refGreedyDense the old greedy grouper, and the helpers below
// the dense symmetrize/extend/aggregate primitives they ran on.

// refWorkspace holds the reference pipeline's dense matrices and the
// greedy engine's scratch; the exhaustive DP, mapGroups and the slot
// counters share the production workspace, which they did then too.
type refWorkspace struct {
	mA, mB   *comm.Matrix
	assigned []bool
	affinity []float64
	pairs    []pair
	cand     []int
	groupOf  []int
}

// other returns the pipeline matrix that is not cur, for ping-pong use.
func (rw *refWorkspace) other(cur *comm.Matrix) *comm.Matrix {
	if cur == rw.mA {
		return rw.mB
	}
	return rw.mA
}

// limit is the exhaustive engine's size limit (exhaustiveLimit in Map).
func refMap(top *topology.Topology, m *comm.Matrix, opt Options, limit int) (*Mapping, error) {
	p := m.Order()
	if p == 0 {
		return nil, fmt.Errorf("treematch: empty communication matrix")
	}
	cores := top.NumCores()
	pusPerCore := top.NumPUs() / cores

	// All transient state — the symmetrize/extend/aggregate matrix
	// chain and the grouping engines' scratch — lives in a pooled
	// workspace, so a full multi-level Map does O(1) matrix
	// allocations. Only one pipeline matrix is live at a time; each
	// transformation writes into the other (ws.other) and swaps.
	ws := getWorkspace()
	defer putWorkspace(ws)
	rw := &refWorkspace{mA: comm.NewMatrix(0), mB: comm.NewMatrix(0)}

	// The mapping tree has the physical cores as leaves: one compute
	// entity per core ("we map only one compute intensive task per
	// physical core"). Arity-1 levels (single socket per NUMA node,
	// private cache chains) do not affect grouping and are skipped.
	arities := coreArities(top)

	// --- Step 1: extend m to manage control threads. ---
	mode := ControlNone
	controlOwner := []int(nil) // extended-entity index -> owning task
	work := symmetrizedInto(m, rw.mA)
	switch {
	case !opt.ControlThreads:
		// Nothing to do.
	case top.Attrs.Hyperthreaded && pusPerCore >= 2 && p <= cores:
		// One hyperthread sibling per core is reserved for control
		// threads; no matrix extension needed.
		mode = ControlHyperthread
	case p < cores:
		// Spare cores exist: add control entities communicating with
		// their tasks so that grouping pulls each control thread next
		// to its task.
		spare := cores - p
		if spare > p {
			spare = p
		}
		owners := refHeaviestTasks(work, spare)
		ext := extendInto(work, rw.other(work), p+spare)
		for ci, task := range owners {
			vol := refRowSum(work, task) * controlVolumeFraction
			if vol == 0 {
				vol = 1 // keep a tiny pull towards the task
			}
			ext.AddSym(p+ci, task, vol)
		}
		work = ext
		controlOwner = owners
		mode = ControlSpareCores
	}
	order := work.Order()

	// --- Step 2: manage oversubscription. ---
	oversub := false
	vArity := 1
	if order > cores {
		// Add a virtual level below the cores so there are enough
		// leaves; entities sharing a virtual parent share a core.
		vArity = (order + cores - 1) / cores
		arities = append(arities, vArity)
		oversub = true
		mode = ControlNone
		controlOwner = nil
		work = symmetrizedInto(m, work) // drop any control extension
		order = work.Order()
	}
	leaves := 1
	for _, a := range arities {
		leaves *= a
	}
	if order < leaves {
		work = extendInto(work, rw.other(work), leaves)
	}

	// --- Steps 3-7: group bottom-up, aggregating the matrix. ---
	// partitions[k] is the grouping performed at loop iteration k, from
	// the leaf-parent level upwards.
	partitions := make([][][]int, 0, len(arities))
	cur := work
	for lvl := len(arities) - 1; lvl >= 0; lvl-- {
		a := arities[lvl]
		// cur is symmetric by construction (symmetrize, then
		// symmetry-preserving extend/AddSym/aggregate steps), so the
		// engines read its rows directly.
		groups, err := refGroupProcesses(cur, a, limit, ws, rw, true)
		if err != nil {
			return nil, fmt.Errorf("treematch: level %d: %w", lvl, err)
		}
		partitions = append(partitions, groups)
		next := rw.other(cur)
		if err := aggregateInto(cur, next, groups, grow(&rw.groupOf, cur.Order())); err != nil {
			return nil, fmt.Errorf("treematch: aggregate level %d: %w", lvl, err)
		}
		cur = next
	}

	// --- Step 8: MapGroups — expand the hierarchy into a leaf order. ---
	leafOrder := mapGroups(partitions, ws)
	if len(leafOrder) != leaves {
		return nil, fmt.Errorf("treematch: internal: %d leaves ordered, want %d", len(leafOrder), leaves)
	}

	// Translate leaf positions into PU bindings.
	res := &Mapping{
		Top:            top,
		ComputePU:      make([]int, p),
		ControlPU:      make([]int, p),
		CoreOf:         make([]int, p),
		Mode:           mode,
		Oversubscribed: oversub,
	}
	for i := range res.ControlPU {
		res.ControlPU[i] = -1
	}
	slotOf := grow(&ws.slots, cores) // per-core next PU slot for oversubscription
	clear(slotOf)
	coreObjs := top.Cores()
	for pos, ent := range leafOrder {
		if ent < 0 || ent >= order {
			continue // padding entity
		}
		coreIdx := pos
		if oversub {
			coreIdx = pos / vArity
		}
		core := coreObjs[coreIdx]
		switch {
		case ent < p:
			slot := 0
			if oversub {
				slot = slotOf[coreIdx] % len(core.Children)
				slotOf[coreIdx]++
			}
			res.ComputePU[ent] = core.Children[slot].LogicalIndex
			res.CoreOf[ent] = coreIdx
			if mode == ControlHyperthread && len(core.Children) > 1 {
				res.ControlPU[ent] = core.Children[1].LogicalIndex
			}
		default:
			// A control entity: bind the owner's control threads to
			// this core.
			task := controlOwner[ent-p]
			res.ControlPU[task] = core.Children[0].LogicalIndex
		}
	}
	return res, nil
}

// refHeaviestTasks is heaviestTasks on a dense matrix.
func refHeaviestTasks(m *comm.Matrix, count int) []int {
	type tv struct {
		task int
		vol  float64
	}
	all := make([]tv, m.Order())
	for i := range all {
		all[i] = tv{i, refRowSum(m, i)}
	}
	for i := 1; i < len(all); i++ { // insertion sort: small n, stable
		for j := i; j > 0 && (all[j].vol > all[j-1].vol ||
			(all[j].vol == all[j-1].vol && all[j].task < all[j-1].task)); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	if count > len(all) {
		count = len(all)
	}
	out := make([]int, count)
	for i := 0; i < count; i++ {
		out[i] = all[i].task
	}
	return out
}

func refRowSum(m *comm.Matrix, i int) float64 {
	var s float64
	for j := 0; j < m.Order(); j++ {
		s += m.At(i, j)
	}
	return s
}

// slabOf copies a dense matrix into a row-major slab.
func slabOf(m *comm.Matrix) []float64 {
	n := m.Order()
	w := make([]float64, 0, n*n)
	for i := 0; i < n; i++ {
		w = append(w, m.RowView(i)...)
	}
	return w
}

// symmetrizedInto writes the symmetrized m into dst (resized and fully
// overwritten) and returns dst.
func symmetrizedInto(m, dst *comm.Matrix) *comm.Matrix {
	n := m.Order()
	dst.Reset(n)
	for i := 0; i < n; i++ {
		out := dst.RowView(i)
		for j, v := range m.RowView(i) {
			out[j] = v + m.At(j, i)
		}
		out[i] = 0
	}
	return dst
}

// extendInto writes into dst the order-newOrder matrix whose leading
// principal submatrix is m, zero elsewhere, and returns dst.
func extendInto(m, dst *comm.Matrix, newOrder int) *comm.Matrix {
	if newOrder < m.Order() {
		newOrder = m.Order()
	}
	dst.Reset(newOrder)
	for i := 0; i < m.Order(); i++ {
		copy(dst.RowView(i), m.RowView(i))
	}
	return dst
}

// aggregateInto merges entities into groups, writing into dst the
// matrix R with R[a][b] = sum over i in groups[a], j in groups[b] of
// m[i][j] (diagonal excluded for a == b).
func aggregateInto(m, dst *comm.Matrix, groups [][]int, groupOf []int) error {
	n := m.Order()
	if len(groupOf) < n {
		groupOf = make([]int, n)
	}
	groupOf = groupOf[:n]
	for i := range groupOf {
		groupOf[i] = -1
	}
	for a, ga := range groups {
		for _, i := range ga {
			if i < 0 || i >= n {
				return fmt.Errorf("comm: aggregate: entity %d out of range", i)
			}
			if groupOf[i] != -1 {
				return fmt.Errorf("comm: aggregate: entity %d in two groups", i)
			}
			groupOf[i] = a
		}
	}
	for i, g := range groupOf {
		if g == -1 {
			return fmt.Errorf("comm: aggregate: entity %d not in any group", i)
		}
	}
	k := len(groups)
	dst.Reset(k)
	for a, ga := range groups {
		drow := dst.RowView(a)
		for _, i := range ga {
			row := m.RowView(i)
			for b, gb := range groups {
				var s float64
				if b == a {
					for _, j := range gb {
						if j != i {
							s += row[j]
						}
					}
				} else {
					// Two accumulators hide the FP-add latency of the
					// gather (a single running sum serialises on it).
					var s1 float64
					x := 0
					for ; x+1 < len(gb); x += 2 {
						s += row[gb[x]]
						s1 += row[gb[x+1]]
					}
					if x < len(gb) {
						s += row[gb[x]]
					}
					s += s1
				}
				drow[b] += s
			}
		}
	}
	return nil
}

// refGroupProcesses is the old groupProcesses on a dense matrix.
func refGroupProcesses(m *comm.Matrix, arity, exhaustiveLimit int, ws *mapWorkspace, rw *refWorkspace, isSym bool) ([][]int, error) {
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
		sym := m
		if !isSym {
			sym = m.Symmetrized()
		}
		groups = groupExhaustive(slabOf(sym), n, arity, ws)
	default:
		groups = refGreedyDense(m, arity, rw, isSym)
	}
	normalizeGroups(groups)
	return groups, nil
}

// refGreedyDense is the dense greedy grouper: pair seeds from a
// lazily-popped heap, and an O(n) affinity row update per admitted
// member with a full candidate scan per pick.
func refGreedyDense(m *comm.Matrix, arity int, ws *refWorkspace, isSym bool) [][]int {
	n := m.Order()
	sym := m
	if !isSym {
		sym = m.Symmetrized()
	}
	assigned := grow(&ws.assigned, n)
	clear(assigned)
	aff := grow(&ws.affinity, n)
	// cand lists the still-unassigned entities in increasing order; the
	// selection pass compacts it in place, so late groups scan only the
	// remaining candidates instead of all n entities every time.
	cand := grow(&ws.cand, n)
	for i := range cand {
		cand[i] = i
	}

	heap := ws.pairs[:0]
	for i := 0; i < n; i++ {
		row := sym.RowView(i)
		for j := i + 1; j < n; j++ {
			if v := row[j]; v > 0 {
				heap = append(heap, pair{i: int32(i), j: int32(j), vol: v})
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
			var pr pair
			pr, heap = popPair(heap)
			if !assigned[pr.i] && !assigned[pr.j] {
				flat = append(flat, int(pr.i), int(pr.j))
				assigned[pr.i], assigned[pr.j] = true, true
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

// GroupProcesses runs the production grouping step on the symmetrized
// m: the entry point the grouping tests and benches drive.
func GroupProcesses(m *comm.Matrix, arity, exhaustiveLimit int) ([][]int, error) {
	ws := getWorkspace()
	defer putWorkspace(ws)
	return groupProcesses(symOf(m), arity, exhaustiveLimit, ws)
}

// symOf is the symmetrized CSR of a, unchecked.
func symOf(a comm.Affinity) *symCSR {
	var sc symScratch
	sym := new(symCSR)
	sc.symmetrize(sym, a, nil, nil, false)
	return sym
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

// pairBefore reports whether a pops before b: heavier volume first,
// ties by (i,j) ascending.
func pairBefore(a, b pair) bool {
	if a.vol != b.vol {
		return a.vol > b.vol
	}
	if a.i != b.i {
		return a.i < b.i
	}
	return a.j < b.j
}

// heapifyPairs establishes the max-heap property in O(len(h)).
func heapifyPairs(h []pair) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownPair(h, i)
	}
}

func siftDownPair(h []pair, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h) && pairBefore(h[l], h[best]) {
			best = l
		}
		if r < len(h) && pairBefore(h[r], h[best]) {
			best = r
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// popPair removes and returns the heap top.
func popPair(h []pair) (pair, []pair) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	if len(h) > 1 {
		siftDownPair(h, 0)
	}
	return top, h
}
