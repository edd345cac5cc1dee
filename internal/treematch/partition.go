package treematch

import (
	"fmt"
	"slices"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// Partitioning records how a partitioned mapping split the task graph:
// one entry per topology subtree that received a TreeMatch run.
// The adaptive layer keys its drift tracking on this structure so
// re-placement can recompute one subtree at a time. It is immutable
// once built (RemapPartition never edits it), so copies share it.
type Partitioning struct {
	Parts []Partition
}

// Partition is one element of a Partitioning: a subtree of the machine
// and the tasks mapped under it.
type Partition struct {
	// Depth is the tree depth of the subtree root.
	Depth int
	// Object is the DFS position of the subtree root among
	// Top.ObjectsAtDepth(Depth).
	Object int
	// Tasks lists the global task ids mapped under the subtree, ascending.
	Tasks []int
}

// MapAffinity is Map with partitioned mapping above the threshold.
//
// At or below opt.PartitionThreshold tasks it is Map. Above it the task
// graph is split along weak cuts instead: the mapper descends the
// topology tree level by level, at each node partitioning the tasks
// among the child subtrees with a variant of the greedy grouper (same
// seed/grow/tie rules, O(nnz log nnz)); sibling subtrees are
// equidistant from everything outside their parent, so the assignment
// of partitions to siblings is free and the recursion needs no global
// ordering pass. When a subtree is small enough, its tasks are mapped
// by TreeMatch on their sub-CSR against that subtree and stitched into
// the machine-global mapping.
func MapAffinity(top *topology.Topology, a comm.Affinity, opt Options) (*Mapping, error) {
	opt = opt.withDefaults()
	if opt.PartitionThreshold < 0 || comm.NilAffinity(a) || a.Order() <= opt.PartitionThreshold {
		return Map(top, a, opt)
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	if err := ws.sym.symmetrize(&ws.lvl[0], a, nil, nil, true); err != nil {
		return nil, err
	}
	return mapPartitioned(top, &ws.lvl[0], opt)
}

// mapPartitioned runs the partitioned path on the symmetrized sym.
func mapPartitioned(top *topology.Topology, sym *symCSR, opt Options) (*Mapping, error) {
	p := sym.order()
	cores := top.Cores()
	if len(cores) == 0 {
		return nil, fmt.Errorf("treematch: topology %s has no cores", top.Attrs.Name)
	}
	res := &Mapping{
		Top:        top,
		ComputePU:  make([]int, p),
		ControlPU:  make([]int, p),
		CoreOf:     make([]int, p),
		Partitions: &Partitioning{},
	}
	for i := range res.ControlPU {
		res.ControlPU[i] = -1
	}
	st := &partitionedMap{
		top:       top,
		opt:       opt,
		res:       res,
		pt:        new(grouper),
		coreDepth: cores[0].Depth(),
		local:     slices.Repeat([]int{-1}, p),
	}
	st.pt.use(sym)
	tasks := make([]int, p)
	for i := range tasks {
		tasks[i] = i
	}
	if err := st.descend(top.Root, tasks); err != nil {
		return nil, err
	}
	res.Mode = st.mode
	return res, nil
}

// RemapPartition recomputes the mapping of one partition of a
// partitioned mapping from a fresh (global-index) affinity, writing the
// new bindings of that partition's tasks into mp and leaving every
// other task untouched. This is the partial-recompute primitive behind
// per-subtree drift: only the tasks of the drifted subtree can move, so
// migration cost is bounded by the partition size.
func RemapPartition(mp *Mapping, a comm.Affinity, part Partition, opt Options) error {
	opt = opt.withDefaults()
	if mp.Partitions == nil {
		return fmt.Errorf("treematch: remap partition of an unpartitioned mapping")
	}
	objs := mp.Top.ObjectsAtDepth(part.Depth)
	if part.Object < 0 || part.Object >= len(objs) {
		return fmt.Errorf("treematch: partition object %d out of range (%d at depth %d)",
			part.Object, len(objs), part.Depth)
	}
	if len(part.Tasks) == 0 {
		return nil
	}
	for _, g := range part.Tasks {
		if g < 0 || g >= a.Order() || g >= len(mp.ComputePU) {
			return fmt.Errorf("treematch: partition task %d out of range", g)
		}
	}
	obj := objs[part.Object]
	sub, err := topology.Subtree(mp.Top, obj)
	if err != nil {
		return err
	}
	ws := getWorkspace()
	defer putWorkspace(ws)
	local := ws.localIndex(a.Order())
	for li, g := range part.Tasks {
		local[g] = li
	}
	err = ws.sym.symmetrize(&ws.lvl[0], a, part.Tasks, local, true)
	for _, g := range part.Tasks {
		local[g] = -1
	}
	if err != nil {
		return err
	}
	var subMp *Mapping
	if len(part.Tasks) > opt.PartitionThreshold && sub.NumCores() > 1 {
		subMp, err = mapPartitioned(sub, &ws.lvl[0], opt)
	} else {
		subMp, err = mapLevels(sub, ws, opt, exhaustiveLimit)
	}
	if err != nil {
		return err
	}
	stitchPartition(mp, subMp, obj, part.Tasks)
	return nil
}

// partitionedMap is the recursion state of the partitioned path.
type partitionedMap struct {
	top       *topology.Topology
	opt       Options
	res       *Mapping
	pt        *grouper
	coreDepth int
	local     []int // global id -> sub-CSR index scratch, all -1
	mode      ControlMode
	modeSet   bool
}

// descend maps the given tasks under obj: in one TreeMatch run when the
// instance is small relative to the subtree, otherwise by splitting
// among the effective children and recursing.
func (st *partitionedMap) descend(obj *topology.Object, tasks []int) error {
	if len(tasks) == 0 {
		return nil
	}
	kids := effectiveChildren(obj, st.coreDepth)
	if kids == nil || len(tasks) <= st.denseStop(obj) {
		return st.mapLeaf(obj, tasks)
	}
	groups := st.pt.split(tasks, len(kids), false)
	for k, g := range groups {
		if err := st.descend(kids[k], g); err != nil {
			return err
		}
	}
	return nil
}

// denseStop is the instance size at or below which a subtree is mapped
// by one TreeMatch run: large enough that the subtree's cores get a
// jointly-optimized arrangement. Capped at the partition threshold, the
// largest instance MapAffinity maps in one run outright.
func (st *partitionedMap) denseStop(obj *topology.Object) int {
	ppc := st.top.NumPUs() / st.top.NumCores()
	cores := len(obj.PUs()) / ppc
	stop := 2 * cores
	if stop < 32 {
		stop = 32
	}
	if stop > st.opt.PartitionThreshold {
		stop = st.opt.PartitionThreshold
	}
	return stop
}

// mapLeaf runs TreeMatch on the tasks' sub-CSR against the subtree
// and stitches the result.
func (st *partitionedMap) mapLeaf(obj *topology.Object, tasks []int) error {
	if core := singleCoreOf(obj); core != nil {
		st.mapCoreLeaf(core, obj, tasks)
		return nil
	}
	sub, err := topology.Subtree(st.top, obj)
	if err != nil {
		return fmt.Errorf("treematch: subtree %s: %w", obj, err)
	}
	// The sub-CSR is the principal submatrix of the symmetrized
	// affinity, doubled: what symmetrizing the extracted submatrix again
	// gives, so the leaf decides exactly as a Map of it would.
	ws := getWorkspace()
	induceDoubled(&ws.lvl[0], st.pt.csr, tasks, st.local)
	subMp, err := mapLevels(sub, ws, st.opt, exhaustiveLimit)
	putWorkspace(ws)
	if err != nil {
		return fmt.Errorf("treematch: partition at %s: %w", obj, err)
	}
	stitchPartition(st.res, subMp, obj, tasks)
	st.record(obj, tasks, subMp.Mode, subMp.Oversubscribed)
	return nil
}

// record notes a mapped leaf partition: its structure, and its control
// mode and oversubscription folded into the global mapping's (a mode
// the leaves disagree on becomes ControlNone).
func (st *partitionedMap) record(obj *topology.Object, tasks []int, mode ControlMode, oversub bool) {
	st.res.Oversubscribed = st.res.Oversubscribed || oversub
	if !st.modeSet {
		st.mode, st.modeSet = mode, true
	} else if st.mode != mode {
		st.mode = ControlNone
	}
	st.res.Partitions.Parts = append(st.res.Partitions.Parts, Partition{
		Depth:  obj.Depth(),
		Object: obj.DepthIndex(),
		Tasks:  tasks,
	})
}

// singleCoreOf returns the core when obj's subtree holds exactly one
// (obj is a core or an arity-1 chain down to one), else nil.
func singleCoreOf(obj *topology.Object) *topology.Object {
	cur := obj
	for cur.Type != topology.Core {
		if len(cur.Children) != 1 {
			return nil
		}
		cur = cur.Children[0]
	}
	return cur
}

// mapCoreLeaf binds a leaf partition's tasks to a single core without
// building a subtree or running the pipeline. It reproduces
// exactly what Map produces for a one-core machine: tasks in ascending
// order round-robin over the core's PUs (the oversubscribed virtual
// level degenerates to one group per core), control threads on the
// hyperthread sibling only in the non-oversubscribed hyperthreaded
// case, and the OS scheduler otherwise.
func (st *partitionedMap) mapCoreLeaf(core, obj *topology.Object, tasks []int) {
	pus := core.Children
	oversub := len(tasks) > 1
	mode := ControlNone
	if st.opt.ControlThreads && !oversub && st.top.Attrs.Hyperthreaded && len(pus) >= 2 {
		mode = ControlHyperthread
	}
	for slot, g := range tasks {
		st.res.ComputePU[g] = pus[slot%len(pus)].LogicalIndex
		st.res.CoreOf[g] = core.LogicalIndex
		if mode == ControlHyperthread {
			st.res.ControlPU[g] = pus[1].LogicalIndex
		} else {
			st.res.ControlPU[g] = -1
		}
	}
	st.record(obj, tasks, mode, oversub)
}

// effectiveChildren returns the first level strictly below obj with
// more than one object (skipping arity-1 chains), or nil when that
// would descend past the core level — the recursion then stops and
// maps the subtree in one run.
func effectiveChildren(obj *topology.Object, coreDepth int) []*topology.Object {
	cur := obj
	for cur.Depth() < coreDepth {
		if len(cur.Children) > 1 {
			return cur.Children
		}
		cur = cur.Children[0]
	}
	return nil
}

// stitchPartition translates a subtree-local mapping into the global
// mapping: subtree logical indexes are DFS-contiguous slices of the
// global ones, so the translation is a constant offset per index space.
func stitchPartition(mp *Mapping, sub *Mapping, obj *topology.Object, tasks []int) {
	firstPU := obj
	for len(firstPU.Children) > 0 {
		firstPU = firstPU.Children[0]
	}
	puBase := firstPU.LogicalIndex
	coreBase := 0
	if core := firstPU.AncestorOfType(topology.Core); core != nil {
		coreBase = core.LogicalIndex
	}
	for li, g := range tasks {
		mp.ComputePU[g] = puBase + sub.ComputePU[li]
		mp.CoreOf[g] = coreBase + sub.CoreOf[li]
		if sub.ControlPU[li] >= 0 {
			mp.ControlPU[g] = puBase + sub.ControlPU[li]
		} else {
			mp.ControlPU[g] = -1
		}
	}
}
