// Package treematch implements the mapping algorithm of the paper
// (Algorithm 1), an adaptation of the TreeMatch process-placement
// algorithm to thread placement in the ORWL runtime.
//
// Given a hardware topology tree and a communication matrix between
// computing entities, Map produces an assignment of each entity to a
// processing unit that groups heavily-communicating entities under
// shared caches and NUMA nodes. The two adaptations described in §IV-A
// are included: accounting for the runtime's control threads (reserving
// hyperthread siblings, or spare cores, for them) and oversubscription
// when there are more entities than computing resources.
package treematch

import (
	"fmt"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// ControlMode describes how control threads were accounted for by the
// mapping (second adaptation of Algorithm 1).
type ControlMode int

const (
	// ControlNone leaves control threads to the OS scheduler: there was
	// no spare capacity, or control-thread accounting was disabled.
	ControlNone ControlMode = iota
	// ControlHyperthread reserves one hyperthread sibling per physical
	// core: the compute thread gets one PU, its control threads the
	// other.
	ControlHyperthread
	// ControlSpareCores maps control threads onto cores left over after
	// placing one compute entity per core.
	ControlSpareCores
)

var controlModeNames = [...]string{
	ControlNone:        "none",
	ControlHyperthread: "hyperthread-sibling",
	ControlSpareCores:  "spare-cores",
}

// String names the control mode.
func (m ControlMode) String() string {
	if m < 0 || int(m) >= len(controlModeNames) {
		return fmt.Sprintf("ControlMode(%d)", int(m))
	}
	return controlModeNames[m]
}

// Options tunes Map. The zero value gives the paper's defaults.
type Options struct {
	// ControlThreads enables the control-thread adaptation
	// (extend_to_manage_control_threads in Algorithm 1).
	ControlThreads bool
	// PartitionThreshold is the largest order MapAffinity maps in one run;
	// above it the task graph is partitioned along weak cuts and each
	// partition is mapped against its topology subtree. Default
	// DefaultPartitionThreshold; negative disables partitioning (always
	// one run): placement.LocalService.Place, placement.Engine.Simulate
	// and cmd/orwlmap pin -1, so a placement maps in one run at any order.
	PartitionThreshold int
}

// DefaultPartitionThreshold is the order above which MapAffinity
// switches from the single-shot TreeMatch to the partitioned path. It
// matches comm.DenseOrderThreshold, the order where affinities switch
// to sparse storage: up to it one run arranges the whole machine
// jointly; above it a weak-cut recursion bounds every run by a
// subtree.
const DefaultPartitionThreshold = comm.DenseOrderThreshold

// The grouping step runs the optimal exponential engine on levels of at
// most exhaustiveLimit entities and the greedy one above. A spare-core
// control entity carries controlVolumeFraction of its task's volume.
const exhaustiveLimit, controlVolumeFraction = 12, 0.1

func (o Options) withDefaults() Options {
	if o.PartitionThreshold == 0 {
		o.PartitionThreshold = DefaultPartitionThreshold
	}
	return o
}

// Canonical returns the options with the defaults filled in, so
// configurations that Map treats identically also compare (and hash)
// alike.
func (o Options) Canonical() Options { return o.withDefaults() }

// Mapping is the result of Map: a binding of every compute entity (and,
// when possible, of its control threads) to PUs of the topology.
type Mapping struct {
	Top *topology.Topology
	// ComputePU[i] is the logical PU index entity i is bound to.
	ComputePU []int
	// ControlPU[i] is the logical PU index the control threads of
	// entity i are bound to, or -1 when they are left to the OS.
	ControlPU []int
	// Mode records how control threads were handled.
	Mode ControlMode
	// Oversubscribed is true when there were more entities than cores
	// and a virtual tree level was added.
	Oversubscribed bool
	// CoreOf[i] is the logical core index entity i runs on (diagnostic).
	CoreOf []int
	// Partitions describes the partition structure when the mapping was
	// produced by the partitioned path (MapAffinity above the
	// threshold); nil for a single-shot mapping. Adaptive
	// re-placement uses it to track drift and recompute per subtree.
	Partitions *Partitioning
}

// Map runs Algorithm 1: it adapts the communication matrix for control
// threads, handles oversubscription, groups entities bottom-up by
// communication affinity along the topology tree, and assigns the
// resulting group hierarchy to cores.
//
// Every step runs on the symmetrized matrix A+Aᵀ in compressed sparse
// rows, so a mapping costs O(nnz) per level, never O(n²). A cell that
// is NaN, ±Inf or negative is refused.
func Map(top *topology.Topology, a comm.Affinity, opt Options) (*Mapping, error) {
	if comm.NilAffinity(a) || a.Order() == 0 {
		return nil, fmt.Errorf("treematch: empty communication matrix")
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	if err := ws.sym.symmetrize(&ws.lvl[0], a, nil, nil, true); err != nil {
		return nil, err
	}
	return mapLevels(top, ws, opt, exhaustiveLimit)
}

// mapLevels is Map on the symmetrized matrix already in ws.lvl[0],
// running the exhaustive engine on levels of at most limit entities.
func mapLevels(top *topology.Topology, ws *mapWorkspace, opt Options, limit int) (*Mapping, error) {
	work := &ws.lvl[0]
	p := work.order()
	cores := top.NumCores()
	pusPerCore := top.NumPUs() / cores

	// The mapping tree has the physical cores as leaves: one compute
	// entity per core ("we map only one compute intensive task per
	// physical core"). Arity-1 levels (single socket per NUMA node,
	// private cache chains) do not affect grouping and are skipped.
	arities := coreArities(top)

	// --- Step 1: extend the matrix to manage control threads. ---
	mode := ControlNone
	controlOwner := []int(nil) // control entity p+ci -> owning task
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
		spare := min(cores-p, p)
		controlOwner = heaviestTasks(work, spare)
		extendControl(&ws.lvl[1], work, controlOwner, controlVolumeFraction)
		ws.lvl[0], ws.lvl[1] = ws.lvl[1], ws.lvl[0]
		work = &ws.lvl[0]
		mode = ControlSpareCores
	}
	order := work.order()

	// --- Step 2: manage oversubscription. ---
	// (Control entities exist only when p < cores, so an oversubscribed
	// matrix never carries them.)
	oversub := false
	vArity := 1
	if order > cores {
		// Add a virtual level below the cores so there are enough
		// leaves; entities sharing a virtual parent share a core.
		vArity = (order + cores - 1) / cores
		arities = append(arities, vArity)
		oversub = true
	}
	leaves := 1
	for _, a := range arities {
		leaves *= a
	}
	for work.order() < leaves {
		work.endRow() // a padding entity: an empty row
	}

	// --- Steps 3-7: group bottom-up, aggregating the matrix. ---
	// partitions[k] is the grouping performed at loop iteration k, from
	// the leaf-parent level upwards.
	partitions := make([][][]int, 0, len(arities))
	cur, next := &ws.lvl[0], &ws.lvl[1]
	for lvl := len(arities) - 1; lvl >= 0; lvl-- {
		a := arities[lvl]
		groups, err := groupProcesses(cur, a, limit, ws)
		if err != nil {
			return nil, fmt.Errorf("treematch: level %d: %w", lvl, err)
		}
		partitions = append(partitions, groups)
		aggregate(next, cur, groups, ws)
		cur, next = next, cur
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

// extendControl writes into dst the matrix m plus one control entity
// per owner: entity p+ci talks to task owners[ci] with a share frac of
// that task's volume (1 when the task is silent), so grouping pulls
// each control thread next to its task.
func extendControl(dst, m *symCSR, owners []int, frac float64) {
	p := m.order()
	vol := make([]float64, len(owners))
	ctl := make([]int, p) // task -> 1 + its control entity's index
	for ci, task := range owners {
		if vol[ci] = m.rowSum(task) * frac; vol[ci] == 0 {
			vol[ci] = 1 // keep a tiny pull towards the task
		}
		ctl[task] = 1 + ci
	}
	dst.reset()
	for i := 0; i < p; i++ {
		dst.col = append(dst.col, m.col[m.ptr[i]:m.ptr[i+1]]...)
		dst.val = append(dst.val, m.val[m.ptr[i]:m.ptr[i+1]]...)
		if ci := ctl[i] - 1; ci >= 0 {
			dst.push(p+ci, vol[ci]) // control columns sort after every task
		}
		dst.endRow()
	}
	for ci, task := range owners {
		dst.push(task, vol[ci])
		dst.endRow()
	}
}

// coreArities returns the arities of the topology tree truncated at the
// core level, with arity-1 levels removed. The product equals the number
// of cores.
func coreArities(top *topology.Topology) []int {
	all := top.Arities()
	// The last level is Core -> PU; drop it so cores are the leaves.
	all = all[:len(all)-1]
	var out []int
	for _, a := range all {
		if a > 1 {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		out = []int{top.NumCores()}
	}
	return out
}

// heaviestTasks returns the indexes of the count tasks with the largest
// total communication volume, in decreasing order (ties by index).
func heaviestTasks(m *symCSR, count int) []int {
	type tv struct {
		task int
		vol  float64
	}
	all := make([]tv, m.order())
	for i := range all {
		all[i] = tv{i, m.rowSum(i)}
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

// mapGroups expands the bottom-up grouping hierarchy into the final
// leaf order: element k of the result is the entity assigned to leaf k.
// partitions[0] is the leaf-parent grouping, the last element the
// top-level grouping. The expansion ping-pongs between two workspace
// buffers; the returned slice aliases the workspace and is only valid
// until the next use of ws.
func mapGroups(partitions [][][]int, ws *mapWorkspace) []int {
	// Start from the top: the final aggregation has one entity per
	// top-level group, in group order.
	top := partitions[len(partitions)-1]
	seq := grow(&ws.seqA, len(top))
	for i := range seq {
		seq[i] = i
	}
	next := ws.seqB
	// Walk back down, expanding each super-entity into its members.
	for lvl := len(partitions) - 1; lvl >= 0; lvl-- {
		groups := partitions[lvl]
		total := 0
		for _, e := range seq {
			total += len(groups[e])
		}
		next = next[:0]
		if cap(next) < total {
			next = make([]int, 0, total)
		}
		for _, e := range seq {
			next = append(next, groups[e]...)
		}
		seq, next = next, seq[:0]
	}
	ws.seqA, ws.seqB = seq, next // keep the grown buffers pooled
	return seq
}
