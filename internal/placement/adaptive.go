package placement

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"orwlplace/internal/comm"
	"orwlplace/internal/orwl"
	"orwlplace/internal/perfsim"
	"orwlplace/internal/treematch"
)

// This file closes the placement loop. The paper computes a mapping
// once, at the schedule barrier, from the declared dependency graph —
// and its own evaluation shows dynamic traffic drifting away from
// that graph is exactly where bound placement loses ground. The
// Reconciler turns the one-shot pipeline into a feedback loop: every
// epoch it samples an observed-traffic window, measures how far the
// traffic has drifted from the matrix backing the current assignment,
// recomputes through TreeMatch when the drift crosses a threshold,
// and adopts the new mapping only when the perfsim-modeled gain over
// the remaining horizon beats the modeled migration cost.

// AdaptiveStats counts a reconciler's activity. It is embedded in
// ServiceStats so the service surface (and the wire protocol's stats
// payload) reports the feedback loop next to the cache counters.
type AdaptiveStats struct {
	// Epochs is the number of reconciliation epochs run.
	Epochs uint64
	// DriftEpochs is the number of epochs whose drift exceeded the
	// threshold — each triggered a recompute, unless the adopt
	// hysteresis held it (see AdaptiveConfig.AdoptAfter).
	DriftEpochs uint64
	// Remaps is the number of adopted re-placements.
	Remaps uint64
	// Rejected is the number of recomputed mappings discarded because
	// the modeled gain did not cover the modeled migration cost.
	Rejected uint64
	// LastDrift is the drift measured by the most recent epoch, in
	// [0, 1]. Aggregated stats (a service with several reconcilers, a
	// fleet) report the maximum across contributors with activity —
	// the alarm view: "how bad is the worst drift anyone measured
	// last" — which is deterministic regardless of iteration order.
	LastDrift float64
}

// merge accumulates other into st (fleet aggregation): counters sum,
// LastDrift takes the maximum over contributors that have run at
// least one epoch, so an idle machine does not zero out a busy one
// and map-iteration order cannot flap the result. st.Epochs == 0
// before accumulation means no active contributor has merged yet.
func (st *AdaptiveStats) merge(other AdaptiveStats) {
	if other.Epochs > 0 && (st.Epochs == 0 || other.LastDrift > st.LastDrift) {
		st.LastDrift = other.LastDrift
	}
	st.Epochs += other.Epochs
	st.DriftEpochs += other.DriftEpochs
	st.Remaps += other.Remaps
	st.Rejected += other.Rejected
}

// Drift measures how far communication matrix b has moved from a, as
// half the L1 distance between the two symmetrized, volume-normalized
// matrices: 0 means identical structure (scaling the same pattern up
// or down is not drift), 1 means the traffic now flows entirely
// between different pairs. One all-zero matrix against a non-zero one
// is full drift; two all-zero matrices agree.
//
// It is DriftAffinity on two dense matrices.
func Drift(a, b *comm.Matrix) float64 {
	return DriftAffinity(a, b)
}

// DriftAffinity is Drift on the representation-independent surface,
// walking only the union of nonzeros — O(nnz), so a sparse 10k-task
// window is measured without touching an n² slab. It is PartitionDrift
// with every task in one partition.
func DriftAffinity(a, b comm.Affinity) float64 {
	if comm.NilAffinity(a) || comm.NilAffinity(b) {
		return 1
	}
	return newPartitionBaseline(make([]int, a.Order()), 1, a).drift(make([]float64, 1), b)[0]
}

// PartitionDrift measures drift per partition of a partitioned mapping:
// for each partition, the half-L1 distance between the per-partition
// volume-normalized symmetrized restrictions of base and window to that
// partition's internal task pairs. A partition whose internal pattern
// is stable scores 0 however much the others move — the signal that
// lets re-placement recompute only the drifted subtree. Cross-partition
// traffic is not attributed to any partition: the partition structure
// itself owns it, and shifting it is a matter for a full re-placement,
// not a subtree remap. Runs in O(nnz + tasks), hashes nothing and sums
// in a fixed order, so equal inputs give bit-identical results.
func PartitionDrift(parts *treematch.Partitioning, base, window comm.Affinity) []float64 {
	out := make([]float64, len(parts.Parts))
	if comm.NilAffinity(base) {
		return fullDrift(out)
	}
	return newPartitionBaseline(partitionOf(parts, base.Order()), len(parts.Parts), base).drift(out, window)
}

// partitionOf maps each of n tasks to its partition's index, -1 for none.
func partitionOf(parts *treematch.Partitioning, n int) []int {
	partOf := make([]int, n)
	for i := range partOf {
		partOf[i] = -1
	}
	for pi, p := range parts.Parts {
		for _, g := range p.Tasks {
			if g >= 0 && g < n {
				partOf[g] = pi
			}
		}
	}
	return partOf
}

// fullDrift writes the per-partition answer for incomparable inputs.
func fullDrift(out []float64) []float64 {
	for i := range out {
		out[i] = 1
	}
	return out
}

// partitionPair is a partition-internal task pair i < j and its
// symmetrized volume a[i][j] + a[j][i].
type partitionPair struct {
	i, j int32
	v    float64
}

// partitionBaseline is the baseline side of PartitionDrift in the form
// the measurement consumes: the partition-internal pairs sorted by
// (i, j) and their total per partition. It depends only on partitioning
// and baseline, so the reconciler keeps it across steady epochs and an
// adopted window replaces it in place (adopt). One Epoch at a time.
type partitionBaseline struct {
	partOf       []int   // see partitionOf
	base, window pairSet // the baseline's gather; a window's
	measured     bool    // window holds the last drift's gather
	// collect is pb.collectPair bound once: a func passed through the
	// Affinity interface escapes, so a fresh one would allocate per gather.
	collect func(i, j int, v float64)
}

// pairSet is one gather — pairs, totals per partition, and the lower
// cells without an upper mirror, set aside.
type pairSet struct {
	pairs, lone []partitionPair
	totals      []float64
}

func newPartitionBaseline(partOf []int, parts int, base comm.Affinity) *partitionBaseline {
	pb := &partitionBaseline{partOf: partOf}
	pb.collect = pb.collectPair
	pb.gather(base, parts)
	pb.adopt()
	return pb
}

// gather collects a's partition-internal off-diagonal entries into
// window as pairs i < j sorted by (i, j), the (i,j)/(j,i) duplicates
// folded, and totals them per partition in that order.
func (pb *partitionBaseline) gather(a comm.Affinity, parts int) {
	pb.sortedPairs(a)
	w := &pb.window
	if len(w.totals) != parts {
		w.totals = make([]float64, parts)
	}
	clear(w.totals)
	for _, p := range w.pairs {
		w.totals[pb.partOf[p.i]] += p.v
	}
	pb.measured = true
}

// adopt makes the window the last drift gathered the baseline, with no
// second pass; the old baseline's buffers become the window scratch. It
// is false, changing nothing, when that drift gathered nothing.
func (pb *partitionBaseline) adopt() bool {
	if !pb.measured {
		return false
	}
	pb.base, pb.window, pb.measured = pb.window, pb.base, false
	return true
}

// sortedPairs is the gather: walk a's pairs (comm.Affinity.ForEachPair)
// and keep the partition-internal ones. Upper cells come out sorted by
// (i, j); a lone lower cell is set aside as (j, i), and the few such (a
// symmetric window has none) are sorted and merged in.
func (pb *partitionBaseline) sortedPairs(a comm.Affinity) {
	w := &pb.window
	if nnz := a.NNZ(); cap(w.pairs) < nnz {
		w.pairs = make([]partitionPair, 0, nnz)
	}
	w.pairs, w.lone = w.pairs[:0], w.lone[:0]
	a.ForEachPair(pb.collect)
	if len(w.lone) == 0 {
		return
	}
	byIJ := func(p, q partitionPair) int { return cmp.Or(cmp.Compare(p.i, q.i), cmp.Compare(p.j, q.j)) }
	slices.SortFunc(w.lone, byIJ)
	u, l := len(w.pairs), len(w.lone)
	w.pairs = slices.Grow(w.pairs, l)[:u+l]
	for k := u + l - 1; l > 0; k-- { // merge from the back, in place
		if u > 0 && byIJ(w.lone[l-1], w.pairs[u-1]) < 0 {
			u--
			w.pairs[k] = w.pairs[u]
		} else {
			l--
			w.pairs[k] = w.lone[l]
		}
	}
}

// collectPair keeps one partition-internal pair of sortedPairs' walk.
func (pb *partitionBaseline) collectPair(i, j int, v float64) {
	if pi := pb.partOf[i]; pi < 0 || pb.partOf[j] != pi {
		return
	}
	w := &pb.window
	if i < j {
		w.pairs = append(w.pairs, partitionPair{i: int32(i), j: int32(j), v: v})
	} else {
		w.lone = append(w.lone, partitionPair{i: int32(j), j: int32(i), v: v})
	}
}

// drift measures window against the baseline into out, one entry per
// partition, by walking the two sorted pair lists in step. Pairs i < j
// and their totals give the distance of the full symmetrized matrices:
// both triangles carry the same volumes, so the factor two cancels. The
// window's gather stays for adopt; a steady walk allocates nothing.
func (pb *partitionBaseline) drift(out []float64, window comm.Affinity) []float64 {
	pb.measured = false
	if comm.NilAffinity(window) || window.Order() != len(pb.partOf) {
		return fullDrift(out)
	}
	pb.gather(window, len(out))
	clear(out)
	a, ta := pb.base.pairs, pb.base.totals
	b, tb := pb.window.pairs, pb.window.totals
	for len(a) > 0 || len(b) > 0 {
		var i int32
		var va, vb float64
		switch {
		case len(b) == 0 || len(a) > 0 && (a[0].i < b[0].i || a[0].i == b[0].i && a[0].j < b[0].j):
			i, va, a = a[0].i, a[0].v, a[1:]
		case len(a) == 0 || a[0].i != b[0].i || a[0].j != b[0].j:
			i, vb, b = b[0].i, b[0].v, b[1:]
		default:
			i, va, vb, a, b = a[0].i, a[0].v, b[0].v, a[1:], b[1:]
		}
		if pi := pb.partOf[i]; ta[pi] > 0 && tb[pi] > 0 {
			out[pi] += math.Abs(va/ta[pi] - vb/tb[pi])
		}
	}
	for pi := range out {
		switch {
		case ta[pi] == 0 && tb[pi] == 0:
			out[pi] = 0
		case ta[pi] == 0 || tb[pi] == 0:
			out[pi] = 1
		default:
			out[pi] /= 2
		}
	}
	return out
}

// AdaptiveConfig tunes a Reconciler.
type AdaptiveConfig struct {
	// Options tunes TreeMatch, the strategy every re-placement runs
	// through: a matrix-oblivious policy cannot react to drift.
	Options Options
	// DriftThreshold is the drift above which an epoch recomputes the
	// mapping (default 0.25).
	DriftThreshold float64
	// Horizon is the number of iterations a newly adopted mapping is
	// expected to serve — the window over which the modeled gain must
	// amortize the migration cost (default 50).
	Horizon int
	// WindowIterations is how many workload iterations one observed
	// window spans, used to scale the window down to per-iteration
	// volumes for the performance model (default 1).
	WindowIterations int
	// AdoptAfter is the number of consecutive over-threshold epochs
	// required before a candidate mapping may be adopted (default 1:
	// adopt on the first alarm). An oscillating workload whose phases
	// are shorter than AdoptAfter epochs never accumulates the streak,
	// so the reconciler rides out the flapping instead of chasing it.
	AdoptAfter int
	// CooldownEpochs suppresses adoption for this many epochs after a
	// remap (default 0: none). Together with AdoptAfter this is the
	// adopt hysteresis: a remap is followed by a quiet period, and the
	// drift must then prove itself persistent again before the next
	// one.
	CooldownEpochs int
	// Workload is the performance-model template for gain/cost
	// modeling; its Comm and Iterations are overridden per epoch. Nil
	// synthesizes a communication-dominated template with a modest
	// per-thread working set.
	Workload *perfsim.Workload
}

// minWindowBytes is the volume below which a window is idle: it neither
// counts as drifted nor triggers a remap. Only empty windows are idle.
const minWindowBytes = 1

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.DriftThreshold == 0 {
		c.DriftThreshold = 0.25
	}
	if c.Horizon == 0 {
		c.Horizon = 50
	}
	if c.WindowIterations == 0 {
		c.WindowIterations = 1
	}
	if c.AdoptAfter == 0 {
		c.AdoptAfter = 1
	}
	return c
}

// EpochReport describes one reconciliation epoch.
type EpochReport struct {
	// Epoch is the 1-based epoch index.
	Epoch uint64
	// WindowBytes is the total volume of the observed window.
	WindowBytes float64
	// Drift is the measured drift against the matrix backing the
	// current assignment. For partitioned mappings it is the maximum
	// per-partition drift — the alarm is the worst subtree.
	Drift float64
	// PartitionDrifts holds the per-partition drift of a partitioned
	// mapping (index-aligned with Assignment.Partitions.Parts); nil for
	// unpartitioned mappings.
	PartitionDrifts []float64
	// RemappedPartitions lists the partition indices whose subtrees were
	// recomputed this epoch (meaningful when Recomputed on a partitioned
	// mapping) — the partitions whose drift crossed the threshold. All
	// other partitions kept their placement verbatim.
	RemappedPartitions []int
	// Recomputed is true when the drift crossed the threshold and a
	// candidate mapping was computed.
	Recomputed bool
	// Held is true when the drift crossed the threshold but the adopt
	// hysteresis withheld the recompute: the over-threshold streak has
	// not yet reached AdoptAfter, or a recent remap's cooldown is still
	// running.
	Held bool
	// Adopted is true when the candidate was bound.
	Adopted bool
	// MovedTasks lists, ascending, the tasks whose placement (compute
	// PU, control PU or core) changed in an adopted remap — the set a
	// delta push ships and an O(changed) re-bind touches. It is nil
	// (unknown, distinct from empty) when the epoch adopted nothing or
	// when the old and new assignments are not comparable slot for slot
	// (unbound, or differently shaped).
	MovedTasks []int
	// GainSeconds is the modeled time saved over the horizon by the
	// candidate (meaningful when Recomputed).
	GainSeconds float64
	// CostSeconds is the modeled one-time migration cost of switching.
	CostSeconds float64
	// Assignment is the mapping in force after the epoch (shared,
	// read-only).
	Assignment *Assignment
}

// Reconciler is the epoch-driven adaptive re-placement engine for one
// program on one machine. Drive it by calling Epoch at whatever cadence
// suits the application (or Run for a ticker-driven loop). It is safe
// for concurrent use with the program it re-binds; epochs run one at a
// time.
type Reconciler struct {
	eng  *Engine
	src  Source        // the window source, one epoch per call
	prog *orwl.Program // nil: model-only, no binding commits
	cfg  AdaptiveConfig

	mu   sync.Mutex
	cur  *Assignment
	base comm.Affinity // affinity backing cur — what drift is measured against
	// driftBase caches base in drift form (one partition for an
	// unpartitioned mapping), so a steady epoch only processes its
	// window; setBaseline, the one writer of cur and base, replaces it.
	driftBase *partitionBaseline
	stats     AdaptiveStats

	// epochMu serializes Epoch, which owns everything below it.
	epochMu sync.Mutex
	// Adopt hysteresis state: consecutive over-threshold epochs seen,
	// and epochs left in the post-remap cooldown.
	overStreak int
	cooldown   int
	// scaled is model's sparse scratch: the window scaled down to one
	// iteration, holding only its nonzeros. threads is the synthesized
	// template's, shared read-only by every model of its order.
	scaled  comm.Sparse
	threads []perfsim.Thread
}

// windowRecycler is the optional face of a Source that gives
// every window away (the fleet controller's hand-off source). An adopted
// window then becomes the baseline as it is, without a copy, and the
// baseline it replaced is handed back in its place; any other window is
// handed back itself once the epoch no longer reads it — two or three
// matrices rotate for ever. Such a source must be driven by one Epoch at
// a time. Without the method the reconciler clones on adoption.
type windowRecycler interface {
	Recycle(comm.Affinity)
}

// NewReconciler builds a reconciler re-placing prog (may be nil for
// model-only use) on eng's machine, fed by src — typically
// ObservedWindow(prog). Prime it with an initial mapping before the
// first Epoch.
func NewReconciler(eng *Engine, src Source, prog *orwl.Program, cfg AdaptiveConfig) (*Reconciler, error) {
	if eng == nil {
		return nil, fmt.Errorf("placement: adaptive: nil engine")
	}
	if src == nil {
		return nil, fmt.Errorf("placement: adaptive: nil source")
	}
	return &Reconciler{eng: eng, src: src, prog: prog, cfg: cfg.withDefaults()}, nil
}

// Prime computes and commits the initial assignment from a source —
// typically Declared(prog), the paper's schedule-barrier mapping; the
// partitioned sparse path when the order warrants it — and records its
// affinity as the drift baseline.
func (r *Reconciler) Prime(src Source) error {
	aff, err := r.eng.Extract(src)
	if err != nil {
		return err
	}
	a, _, err := r.eng.ComputeHinted(TreeMatch, aff, 0, 0, r.cfg.Options)
	if err != nil {
		return err
	}
	if r.prog != nil {
		if err := Bind(r.prog, a); err != nil {
			return err
		}
	}
	r.setBaseline(a, aff.CloneAffinity(), nil)
	return nil
}

// SetCurrent adopts an externally computed assignment (and the affinity
// it was computed from) as the reconciler's baseline — for programs
// placed by the automatic schedule hook before the loop starts, and for
// restored fleet snapshots. The reconciler keeps a itself — assignments
// are immutable shared values — and a copy of base.
func (r *Reconciler) SetCurrent(a *Assignment, base comm.Affinity) error {
	if a == nil || comm.NilAffinity(base) {
		return fmt.Errorf("placement: adaptive: SetCurrent needs an assignment and its affinity")
	}
	r.setBaseline(a, base.CloneAffinity(), nil)
	return nil
}

// setBaseline installs the assignment in force, the affinity it was
// computed from and that affinity in drift form (nil: built by the next
// epoch). Every path replacing either (Prime, SetCurrent and so a
// snapshot restore, an adoption) ends here, so the cached drift form
// never outlives its baseline. A replaced baseline may be recycled
// (windowRecycler): outside Epoch, r.base is only read under r.mu and
// leaves as a copy (BaselineAffinity), so no snapshot aliases the slab.
func (r *Reconciler) setBaseline(cur *Assignment, base comm.Affinity, pb *partitionBaseline) {
	r.mu.Lock()
	r.cur, r.base, r.driftBase = cur, base, pb
	r.mu.Unlock()
}

// driftBaseline returns base in drift form, built on the first epoch
// after a setBaseline that handed none over. An unpartitioned mapping is
// one partition holding every task, so both kinds are measured by the
// same walk.
func (r *Reconciler) driftBaseline(cur *Assignment, base comm.Affinity) *partitionBaseline {
	r.mu.Lock()
	pb := r.driftBase
	r.mu.Unlock()
	if pb == nil {
		partOf, parts := make([]int, base.Order()), 1
		if hasPartitions(cur) {
			partOf, parts = partitionOf(cur.Partitions, base.Order()), len(cur.Partitions.Parts)
		}
		pb = newPartitionBaseline(partOf, parts, base)
		r.mu.Lock()
		if r.base == base { // not replaced while we were building
			r.driftBase = pb
		}
		r.mu.Unlock()
	}
	return pb
}

// hasPartitions reports whether a is a partitioned mapping.
func hasPartitions(a *Assignment) bool {
	return a.Partitions != nil && len(a.Partitions.Parts) > 0
}

// Current returns the assignment in force: a shared, read-only value
// (Clone it to edit).
func (r *Reconciler) Current() *Assignment {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur
}

// BaselineAffinity returns the affinity backing the current assignment
// — the drift baseline (the caller's copy) — or nil before
// Prime/SetCurrent. Durability layers persist it next to the assignment
// so a restored reconciler measures drift against what the adopted
// mapping was computed from, a 10k-task baseline without an n² slab.
func (r *Reconciler) BaselineAffinity() comm.Affinity {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.base == nil {
		return nil
	}
	return r.base.CloneAffinity()
}

// Stats returns a snapshot of the reconciler's counters.
func (r *Reconciler) Stats() AdaptiveStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Epoch runs one reconciliation step: sample the source's next
// window, measure drift, and — when it crosses the threshold —
// recompute and adopt if the modeled gain over the horizon beats the
// modeled migration cost.
func (r *Reconciler) Epoch() (*EpochReport, error) {
	r.epochMu.Lock()
	defer r.epochMu.Unlock()
	r.mu.Lock()
	cur, base := r.cur, r.base
	r.mu.Unlock()
	if cur == nil || base == nil {
		return nil, fmt.Errorf("placement: adaptive: epoch before Prime/SetCurrent")
	}

	window, err := r.eng.Extract(r.src)
	if err != nil {
		return nil, err
	}
	// spare is what a recycling source gets back when the epoch ends, on
	// every return: the window, or the baseline an adopted window replaced.
	recycler, _ := r.src.(windowRecycler)
	spare := window
	if recycler != nil {
		defer func() { recycler.Recycle(spare) }()
	}

	rep := &EpochReport{WindowBytes: window.Total()}
	finish := func() (*EpochReport, error) {
		r.mu.Lock()
		r.stats.Epochs++
		rep.Epoch = r.stats.Epochs
		if rep.WindowBytes >= minWindowBytes {
			r.stats.LastDrift = rep.Drift
		}
		if rep.Recomputed || rep.Held {
			r.stats.DriftEpochs++
		}
		if rep.Recomputed {
			if rep.Adopted {
				r.stats.Remaps++
			} else {
				r.stats.Rejected++
			}
		}
		rep.Assignment = r.cur
		r.mu.Unlock()
		return rep, nil
	}

	// Tick the hysteresis clock: the cooldown set by an adopted remap
	// expires one epoch at a time, whatever the epoch measures.
	cooling := r.cooldown > 0
	if cooling {
		r.cooldown--
	}

	if rep.WindowBytes < minWindowBytes {
		// Idle epoch: nothing flowed, nothing to react to. The
		// over-threshold streak does not survive idleness.
		r.overStreak = 0
		return finish()
	}
	// One drift walk for every mapping and representation. Partitioned
	// mappings also report it per partition — the signal that later
	// scopes the recompute to the drifted subtrees.
	partitioned := hasPartitions(cur)
	pb := r.driftBaseline(cur, base)
	drifts := pb.drift(make([]float64, len(pb.base.totals)), window)
	if partitioned {
		rep.PartitionDrifts = drifts
	}
	for _, d := range drifts {
		if d > rep.Drift {
			rep.Drift = d
		}
	}
	if rep.Drift <= r.cfg.DriftThreshold {
		r.overStreak = 0
		return finish()
	}

	// Drift alarm. The adopt hysteresis gates the (expensive) recompute
	// and model: the alarm must persist AdoptAfter consecutive epochs,
	// and any post-remap cooldown must have expired, before a candidate
	// is even computed — an oscillating workload is held, not chased.
	r.overStreak++
	if r.overStreak < r.cfg.AdoptAfter || cooling {
		rep.Held = true
		return finish()
	}

	// Recompute. A partitioned mapping re-places only the drifted
	// subtrees — everything else keeps its placement verbatim, which is
	// the whole point of tracking drift per partition. Unpartitioned
	// mappings recompute whole through TreeMatch (the mapping cache
	// makes oscillation back to a known pattern cheap).
	var candidate *Assignment
	if partitioned {
		var drifted []int
		for pi, d := range rep.PartitionDrifts {
			if d > r.cfg.DriftThreshold {
				drifted = append(drifted, pi)
			}
		}
		rep.RemappedPartitions = drifted
		candidate, err = r.remapPartitions(cur, window, drifted)
	} else {
		candidate, _, err = r.eng.ComputeHinted(TreeMatch, window, 0, 0, r.cfg.Options)
	}
	if err != nil {
		return nil, err
	}
	rep.Recomputed = true

	// The adoption model follows the mapping, never the window's storage:
	// a partitioned mapping is scored by the O(nnz) latency model over its
	// moved tasks' pairs, any other — bound or unbound — by the cycle-level
	// simulator over the window's nonzeros, at most PartitionThreshold tasks.
	// Both pay the migration cost, nothing when one side is unbound.
	var gain, cost float64
	if partitioned {
		gain, err = perfsim.CommSecondsGain(r.eng.Topology(), window, cur.ComputePU, candidate.ComputePU)
		// The candidate serves Horizon of the window's WindowIterations.
		gain = gain * float64(r.cfg.Horizon) / float64(r.cfg.WindowIterations)
	} else {
		gain, err = r.model(window, cur, candidate)
	}
	if err == nil && !cur.Unbound && !candidate.Unbound {
		cost, err = perfsim.MigrationCost(r.eng.Topology(), r.workload(window.Order()), cur.ComputePU, candidate.ComputePU)
	}
	if err != nil {
		return nil, fmt.Errorf("placement: adaptive: modeling the remap: %w", err)
	}
	rep.GainSeconds, rep.CostSeconds = gain, cost
	if gain <= cost {
		return finish()
	}

	if r.prog != nil {
		if err := Bind(r.prog, candidate); err != nil {
			return nil, err
		}
	}
	rep.Adopted = true
	rep.MovedTasks = movedTasks(cur, candidate)
	if recycler == nil {
		window = window.CloneAffinity() // the source keeps its window
	}
	// The window drift just gathered is the new baseline's drift form
	// whenever the partitioning stays: RemapPartition keeps every
	// partition's tasks, and an unpartitioned mapping is one partition.
	if (!partitioned && hasPartitions(candidate)) || !pb.adopt() {
		pb = nil
	}
	r.setBaseline(candidate, window, pb)
	spare = base
	r.overStreak = 0
	r.cooldown = r.cfg.CooldownEpochs
	return finish()
}

// model is the modeled time cur spends serving Horizon iterations of
// the windowed traffic less the time candidate spends: the workload
// template carrying the window's per-iteration traffic, simulated under
// both. The window is used as it arrived, dense or sparse: Simulate
// walks its nonzeros.
func (r *Reconciler) model(window comm.Affinity, cur, candidate *Assignment) (float64, error) {
	w := r.workload(window.Order())
	w.Comm = window
	if r.cfg.WindowIterations > 1 {
		// Scaled cell by cell, in O(nnz), into the reconciler's sparse
		// scratch: the model is not linear in volume.
		scale := 1 / float64(r.cfg.WindowIterations)
		r.scaled.Reset(window.Order())
		window.ForEach(func(i, j int, v float64) { r.scaled.Set(i, j, v*scale) })
		w.Comm = &r.scaled
	}
	w.Iterations = r.cfg.Horizon
	oldRes, err := perfsim.Simulate(r.eng.Topology(), w, r.eng.SimPlacement(cur, 0))
	if err != nil {
		return 0, err
	}
	newRes, err := perfsim.Simulate(r.eng.Topology(), w, r.eng.SimPlacement(candidate, 0))
	if err != nil {
		return 0, err
	}
	return oldRes.Seconds - newRes.Seconds, nil
}

// remapPartitions builds the candidate for a partitioned mapping by
// re-placing only the drifted partitions in place: every task outside
// them keeps its PU verbatim, and MigrationCost later charges only the
// movers.
func (r *Reconciler) remapPartitions(cur *Assignment, window comm.Affinity, drifted []int) (*Assignment, error) {
	mp := cur.Mapping(r.eng.Topology())
	if mp == nil || mp.Partitions == nil {
		return nil, fmt.Errorf("placement: adaptive: remap of an unpartitioned mapping")
	}
	for _, pi := range drifted {
		if pi < 0 || pi >= len(mp.Partitions.Parts) {
			return nil, fmt.Errorf("placement: adaptive: partition index %d out of range [0,%d)", pi, len(mp.Partitions.Parts))
		}
		if err := treematch.RemapPartition(mp, window, mp.Partitions.Parts[pi], r.cfg.Options); err != nil {
			return nil, err
		}
	}
	return fromMapping(cur.Strategy, mp), nil
}

// workload is the performance-model template for n threads: a copy of
// the configured one, or a synthesized communication-dominated one
// whose Threads are cached per order and shared, as perfsim never
// writes them. Its Comm is unset — MigrationCost, which charges working
// sets and wakeups, never reads it.
func (r *Reconciler) workload(n int) *perfsim.Workload {
	var w perfsim.Workload
	if r.cfg.Workload != nil {
		w = *r.cfg.Workload
		return &w
	}
	w.Name = "adaptive-epoch"
	if len(r.threads) != n {
		r.threads = make([]perfsim.Thread, n)
		for i := range r.threads {
			r.threads[i] = perfsim.Thread{
				ComputeCycles: 5e5,
				WorkingSet:    1 << 20,
				MemoryTraffic: 1 << 16,
			}
		}
	}
	w.Threads = r.threads
	return &w
}

// movedTasks diffs two assignments slot for slot and returns the
// ascending task indices whose compute PU, control PU or core changed —
// the set a partition-scoped remap actually moved. It returns nil
// (unknown) rather than a possibly-wrong set when the two are not
// comparable: either side nil or unbound, different orders, or
// auxiliary slices present on one side only.
func movedTasks(old, new_ *Assignment) []int {
	if old == nil || new_ == nil || old.Unbound || new_.Unbound {
		return nil
	}
	n := len(old.ComputePU)
	if n == 0 || len(new_.ComputePU) != n ||
		len(old.ControlPU) != len(new_.ControlPU) ||
		len(old.CoreOf) != len(new_.CoreOf) {
		return nil
	}
	differs := func(t int) bool {
		return old.ComputePU[t] != new_.ComputePU[t] ||
			(len(old.ControlPU) > 0 && old.ControlPU[t] != new_.ControlPU[t]) ||
			(len(old.CoreOf) > 0 && old.CoreOf[t] != new_.CoreOf[t])
	}
	count := 0
	for t := range n {
		if differs(t) {
			count++
		}
	}
	moved := make([]int, 0, count) // counted first: one allocation, exactly sized
	for t := range n {
		if differs(t) {
			moved = append(moved, t)
		}
	}
	return moved
}

// Run drives Epoch on a ticker until the context is cancelled,
// reporting each epoch to report (which may be nil). Errors stop the
// loop and are returned.
func (r *Reconciler) Run(ctx context.Context, every time.Duration, report func(*EpochReport)) error {
	if every <= 0 {
		return fmt.Errorf("placement: adaptive: non-positive epoch interval %v", every)
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			rep, err := r.Epoch()
			if err != nil {
				return err
			}
			if report != nil {
				report(rep)
			}
		}
	}
}
