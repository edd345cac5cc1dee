package placement

import (
	"context"
	"fmt"
	"math"
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
// recomputes through the same strategy registry when the drift
// crosses a threshold, and adopts the new mapping only when the
// perfsim-modeled gain over the remaining horizon beats the modeled
// migration cost.

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
// It is DriftAffinity for two dense matrices: the pairs i < j are read
// in place, for the totals and then the distance; nothing is allocated.
func Drift(a, b *comm.Matrix) float64 {
	if a == nil || b == nil || a.Order() != b.Order() {
		return 1
	}
	n := a.Order()
	var ta, tb float64
	for i := 0; i < n; i++ {
		ra, rb := a.RowView(i), b.RowView(i)
		for j := i + 1; j < n; j++ {
			ta += ra[j] + a.At(j, i)
			tb += rb[j] + b.At(j, i)
		}
	}
	if ta == 0 && tb == 0 {
		return 0
	}
	if ta == 0 || tb == 0 {
		return 1
	}
	var dist float64
	for i := 0; i < n; i++ {
		ra, rb := a.RowView(i), b.RowView(i)
		for j := i + 1; j < n; j++ {
			dist += math.Abs((ra[j]+a.At(j, i))/ta - (rb[j]+b.At(j, i))/tb)
		}
	}
	return dist / 2
}

// DriftAffinity is Drift on the representation-independent surface,
// walking only the union of nonzeros — O(nnz), so a sparse 10k-task
// window is measured without touching an n² slab. It is PartitionDrift
// with every task in one partition.
func DriftAffinity(a, b comm.Affinity) float64 {
	if a == nil || b == nil {
		return 1
	}
	return newPartitionBaseline(make([]int, a.Order()), 1, a).drift(b)[0]
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
	if base == nil {
		return fullDrift(len(parts.Parts))
	}
	return newPartitionBaseline(partitionOf(parts, base.Order()), len(parts.Parts), base).drift(window)
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

// fullDrift is the per-partition answer for incomparable inputs.
func fullDrift(parts int) []float64 {
	out := make([]float64, parts)
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
// and baseline, so the reconciler keeps it across steady epochs.
type partitionBaseline struct {
	partOf []int // see partitionOf
	pairs  []partitionPair
	totals []float64

	mu     sync.Mutex
	window pairScratch // each window is gathered and sorted here, under mu
}

// pairScratch holds the buffers of one internalPairs call.
type pairScratch struct {
	pairs, tmp []partitionPair
	start      []int
}

func newPartitionBaseline(partOf []int, parts int, base comm.Affinity) *partitionBaseline {
	pb := &partitionBaseline{partOf: partOf}
	pb.pairs, pb.totals = pb.internalPairs(base, parts, &pairScratch{})
	return pb
}

// internalPairs gathers a's partition-internal off-diagonal entries as
// pairs i < j sorted by (i, j), the (i,j)/(j,i) duplicates folded, and
// totals them per partition in that order. The pairs alias sc.pairs.
func (pb *partitionBaseline) internalPairs(a comm.Affinity, parts int, sc *pairScratch) ([]partitionPair, []float64) {
	var merged []partitionPair
	if m, ok := a.(*comm.Matrix); ok {
		merged = pb.densePairs(m, sc)
	} else {
		merged = pb.sortedPairs(a, sc)
	}
	totals := make([]float64, parts)
	for _, p := range merged {
		totals[pb.partOf[p.i]] += p.v
	}
	return merged, totals
}

// densePairs is the gather on a dense matrix: walking the upper triangle
// row by row and adding the transposed cell yields the folded pairs
// already in (i, j) order, so nothing is counted, sorted or merged.
func (pb *partitionBaseline) densePairs(m *comm.Matrix, sc *pairScratch) []partitionPair {
	pairs := sc.pairs[:0]
	for i, pi := range pb.partOf {
		if pi < 0 {
			continue
		}
		row := m.RowView(i)
		for j := i + 1; j < len(row); j++ {
			if v := row[j] + m.At(j, i); v != 0 && pb.partOf[j] == pi {
				pairs = append(pairs, partitionPair{i: int32(i), j: int32(j), v: v})
			}
		}
	}
	sc.pairs = pairs
	return pairs
}

// sortedPairs is the gather on any other representation: collect the
// nonzeros, sort them by (i, j) with two stable counting passes (column,
// then row: O(nnz + tasks) whatever the row shapes), fold the duplicates.
func (pb *partitionBaseline) sortedPairs(a comm.Affinity, sc *pairScratch) []partitionPair {
	n := len(pb.partOf)
	if nnz := a.NNZ(); cap(sc.pairs) < nnz || len(sc.tmp) < nnz {
		sc.pairs, sc.tmp = make([]partitionPair, 0, nnz), make([]partitionPair, nnz)
	}
	if len(sc.start) != n+1 {
		sc.start = make([]int, n+1)
	}
	pairs, start := sc.pairs[:0], sc.start
	a.ForEach(func(i, j int, v float64) {
		if pi := pb.partOf[i]; pi >= 0 && i != j && pb.partOf[j] == pi {
			if i > j {
				i, j = j, i
			}
			pairs = append(pairs, partitionPair{i: int32(i), j: int32(j), v: v})
		}
	})
	for pass, src, dst := 0, pairs, sc.tmp[:len(pairs)]; pass < 2; pass, src, dst = pass+1, dst, src {
		key := func(p partitionPair) int32 {
			if pass == 0 {
				return p.j
			}
			return p.i
		}
		clear(start)
		for _, p := range src {
			start[key(p)+1]++
		}
		for k := 1; k <= n; k++ {
			start[k] += start[k-1]
		}
		for _, p := range src {
			dst[start[key(p)]] = p
			start[key(p)]++
		}
	}
	merged := pairs[:0]
	for _, p := range pairs {
		if k := len(merged) - 1; k >= 0 && merged[k].i == p.i && merged[k].j == p.j {
			merged[k].v += p.v
		} else {
			merged = append(merged, p)
		}
	}
	return merged
}

// drift measures window against the baseline by walking the two sorted
// pair lists in step. Pairs i < j and their totals give the distance of
// the full symmetrized matrices: both triangles carry the same volumes,
// so the factor two cancels.
func (pb *partitionBaseline) drift(window comm.Affinity) []float64 {
	if window == nil || window.Order() != len(pb.partOf) {
		return fullDrift(len(pb.totals))
	}
	out := make([]float64, len(pb.totals))
	pb.mu.Lock()
	defer pb.mu.Unlock()
	a, ta := pb.pairs, pb.totals
	b, tb := pb.internalPairs(window, len(out), &pb.window)
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
	// Strategy names the registered strategy re-placements run through
	// (default TreeMatch).
	Strategy string
	// Options tunes the strategy.
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
	// MinWindowBytes skips reconciliation for windows below this
	// volume — an idle program should neither count as drifted nor
	// trigger remaps (default 1, i.e. skip only empty windows).
	MinWindowBytes float64
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
	// Seed seeds the simulated OS scheduler when modeling unbound
	// assignments.
	Seed int64
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.Strategy == "" {
		c.Strategy = TreeMatch
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = 0.25
	}
	if c.Horizon == 0 {
		c.Horizon = 50
	}
	if c.WindowIterations == 0 {
		c.WindowIterations = 1
	}
	if c.MinWindowBytes == 0 {
		c.MinWindowBytes = 1
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
	// Assignment is the mapping in force after the epoch.
	Assignment *Assignment
}

// Reconciler is the epoch-driven adaptive re-placement engine for one
// program on one machine. Drive it by calling Epoch at whatever cadence
// suits the application (or Run for a ticker-driven loop). It is safe
// for concurrent use with the program it re-binds.
type Reconciler struct {
	eng  *Engine
	src  MatrixSource   // dense window source (classic loop)
	asrc AffinitySource // affinity window source — wins over src when set
	prog *orwl.Program  // nil: model-only, no binding commits
	cfg  AdaptiveConfig

	mu   sync.Mutex
	cur  *Assignment
	base comm.Affinity // affinity backing cur — what drift is measured against
	// driftBase caches base in drift form (one partition for an
	// unpartitioned mapping), so a steady epoch only processes its
	// window; setBaseline, the one writer of cur and base, clears it.
	driftBase *partitionBaseline
	stats     AdaptiveStats

	// Adopt hysteresis state: consecutive over-threshold epochs seen,
	// and epochs left in the post-remap cooldown.
	overStreak int
	cooldown   int

	// perIter is modelWorkload's scratch: the window scaled down to one
	// iteration, held by model under modelMu.
	modelMu sync.Mutex
	perIter comm.Matrix
}

// windowRecycler is the optional face of an AffinitySource that gives
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
func NewReconciler(eng *Engine, src MatrixSource, prog *orwl.Program, cfg AdaptiveConfig) (*Reconciler, error) {
	if eng == nil {
		return nil, fmt.Errorf("placement: adaptive: nil engine")
	}
	if src == nil {
		return nil, fmt.Errorf("placement: adaptive: nil matrix source")
	}
	cfg = cfg.withDefaults()
	if _, ok := Lookup(cfg.Strategy); !ok {
		return nil, fmt.Errorf("placement: adaptive: unknown strategy %q", cfg.Strategy)
	}
	return &Reconciler{eng: eng, src: src, prog: prog, cfg: cfg}, nil
}

// NewAffinityReconciler is NewReconciler fed by an AffinitySource: the
// loop for programs whose traffic is naturally sparse (10k-task fleets,
// observed counters above the dense threshold). Windows, baselines and
// candidates all stay on the representation-independent surface.
func NewAffinityReconciler(eng *Engine, src AffinitySource, prog *orwl.Program, cfg AdaptiveConfig) (*Reconciler, error) {
	if eng == nil {
		return nil, fmt.Errorf("placement: adaptive: nil engine")
	}
	if src == nil {
		return nil, fmt.Errorf("placement: adaptive: nil affinity source")
	}
	cfg = cfg.withDefaults()
	if _, ok := Lookup(cfg.Strategy); !ok {
		return nil, fmt.Errorf("placement: adaptive: unknown strategy %q", cfg.Strategy)
	}
	return &Reconciler{eng: eng, asrc: src, prog: prog, cfg: cfg}, nil
}

// Prime computes and commits the initial assignment from a source —
// typically Declared(prog), the paper's schedule-barrier mapping —
// and records its matrix as the drift baseline.
func (r *Reconciler) Prime(src MatrixSource) error {
	m, err := r.eng.Extract(src)
	if err != nil {
		return err
	}
	a, err := r.eng.Compute(r.cfg.Strategy, m, 0, r.cfg.Options)
	if err != nil {
		return err
	}
	if r.prog != nil {
		if err := Bind(r.prog, a); err != nil {
			return err
		}
	}
	r.setBaseline(a, m.Clone())
	return nil
}

// PrimeAffinity is Prime on the affinity surface: compute and commit
// the initial assignment from an AffinitySource — the partitioned
// sparse path when the order warrants it — and record the affinity as
// the drift baseline.
func (r *Reconciler) PrimeAffinity(src AffinitySource) error {
	aff, err := r.eng.ExtractAffinity(src)
	if err != nil {
		return err
	}
	a, _, err := r.eng.ComputeAffinity(r.cfg.Strategy, aff, 0, r.cfg.Options)
	if err != nil {
		return err
	}
	if r.prog != nil {
		if err := Bind(r.prog, a); err != nil {
			return err
		}
	}
	r.setBaseline(a, aff.CloneAffinity())
	return nil
}

// SetCurrent adopts an externally computed assignment (and the matrix
// it was computed from) as the reconciler's baseline — for programs
// placed by the automatic schedule hook before the loop starts.
func (r *Reconciler) SetCurrent(a *Assignment, m *comm.Matrix) error {
	if a == nil || m == nil {
		return fmt.Errorf("placement: adaptive: SetCurrent needs an assignment and its matrix")
	}
	r.setBaseline(a.Clone(), m.Clone())
	return nil
}

// SetCurrentAffinity is SetCurrent for baselines that live on the
// affinity surface — restored fleet snapshots and sparse primes.
func (r *Reconciler) SetCurrentAffinity(a *Assignment, aff comm.Affinity) error {
	if a == nil || aff == nil {
		return fmt.Errorf("placement: adaptive: SetCurrentAffinity needs an assignment and its affinity")
	}
	r.setBaseline(a.Clone(), aff.CloneAffinity())
	return nil
}

// setBaseline installs the assignment in force and the affinity it was
// computed from. Every path replacing either (Prime*, SetCurrent* and
// so a snapshot restore, an adoption) ends here, so the cached drift
// form never outlives its baseline. A replaced baseline may be recycled
// (windowRecycler): outside Epoch, r.base is only read under r.mu and
// leaves as a copy (BaselineAffinity), so no snapshot aliases the slab.
func (r *Reconciler) setBaseline(cur *Assignment, base comm.Affinity) {
	r.mu.Lock()
	r.cur, r.base, r.driftBase = cur, base, nil
	r.mu.Unlock()
}

// driftBaseline returns base in drift form, built on the first epoch
// after a setBaseline. An unpartitioned mapping is one partition holding
// every task, so both kinds are measured by the same walk.
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

// Current returns the assignment in force (the caller's copy).
func (r *Reconciler) Current() *Assignment {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur.Clone()
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
	r.mu.Lock()
	cur, base := r.cur, r.base
	r.mu.Unlock()
	if cur == nil || base == nil {
		return nil, fmt.Errorf("placement: adaptive: epoch before Prime/SetCurrent")
	}

	var window comm.Affinity
	if r.asrc != nil {
		var err error
		window, err = r.eng.ExtractAffinity(r.asrc)
		if err != nil {
			return nil, err
		}
	} else {
		m, err := r.eng.Extract(r.src)
		if err != nil {
			return nil, err
		}
		window = m
	}

	// spare is what a recycling source gets back when the epoch ends: the
	// window, or the baseline an adopted window replaced.
	recycler, _ := r.asrc.(windowRecycler)
	spare := window

	rep := &EpochReport{WindowBytes: window.Total()}
	finish := func() (*EpochReport, error) {
		r.mu.Lock()
		r.stats.Epochs++
		rep.Epoch = r.stats.Epochs
		if rep.WindowBytes >= r.cfg.MinWindowBytes {
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
		rep.Assignment = r.cur.Clone()
		r.mu.Unlock()
		if recycler != nil {
			recycler.Recycle(spare)
		}
		return rep, nil
	}

	// Tick the hysteresis clock: the cooldown set by an adopted remap
	// expires one epoch at a time, whatever the epoch measures.
	r.mu.Lock()
	cooling := r.cooldown > 0
	if cooling {
		r.cooldown--
	}
	r.mu.Unlock()

	if rep.WindowBytes < r.cfg.MinWindowBytes {
		// Idle epoch: nothing flowed, nothing to react to. The
		// over-threshold streak does not survive idleness.
		r.mu.Lock()
		r.overStreak = 0
		r.mu.Unlock()
		return finish()
	}
	// One drift walk for every mapping and representation. Partitioned
	// mappings also report it per partition — the signal that later
	// scopes the recompute to the drifted subtrees.
	wm, winDense := window.(*comm.Matrix)
	partitioned := hasPartitions(cur)
	drifts := r.driftBaseline(cur, base).drift(window)
	if partitioned {
		rep.PartitionDrifts = drifts
	}
	for _, d := range drifts {
		if d > rep.Drift {
			rep.Drift = d
		}
	}
	if rep.Drift <= r.cfg.DriftThreshold {
		r.mu.Lock()
		r.overStreak = 0
		r.mu.Unlock()
		return finish()
	}

	// Drift alarm. The adopt hysteresis gates the (expensive) recompute
	// and model: the alarm must persist AdoptAfter consecutive epochs,
	// and any post-remap cooldown must have expired, before a candidate
	// is even computed — an oscillating workload is held, not chased.
	r.mu.Lock()
	r.overStreak++
	streak := r.overStreak
	r.mu.Unlock()
	if streak < r.cfg.AdoptAfter || cooling {
		rep.Held = true
		return finish()
	}

	// Recompute. A partitioned mapping re-places only the drifted
	// subtrees — everything else keeps its placement verbatim, which is
	// the whole point of tracking drift per partition. Unpartitioned
	// mappings recompute through the registry as before (the mapping
	// cache makes oscillation back to a known pattern cheap).
	var candidate *Assignment
	var err error
	if partitioned {
		var drifted []int
		for pi, d := range rep.PartitionDrifts {
			if d > r.cfg.DriftThreshold {
				drifted = append(drifted, pi)
			}
		}
		rep.RemappedPartitions = drifted
		candidate, err = r.remapPartitions(cur, window, drifted)
	} else if winDense {
		candidate, err = r.eng.Compute(r.cfg.Strategy, wm, 0, r.cfg.Options)
	} else {
		candidate, _, err = r.eng.ComputeAffinity(r.cfg.Strategy, window, 0, r.cfg.Options)
	}
	if err != nil {
		return nil, err
	}
	rep.Recomputed = true

	var gain, cost float64
	if winDense && !partitioned {
		gain, cost, err = r.model(wm, cur, candidate)
	} else {
		gain, cost, err = r.modelSparse(window, cur, candidate)
	}
	if err != nil {
		return nil, err
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
	r.setBaseline(candidate, window)
	spare = base
	r.mu.Lock()
	r.overStreak = 0
	r.cooldown = r.cfg.CooldownEpochs
	r.mu.Unlock()
	return finish()
}

// model compares cur and candidate under the windowed traffic: the
// modeled seconds each spends serving Horizon iterations of the
// observed pattern, and the one-time migration cost of switching.
func (r *Reconciler) model(window *comm.Matrix, cur, candidate *Assignment) (gain, cost float64, err error) {
	r.modelMu.Lock()
	defer r.modelMu.Unlock()
	w := r.modelWorkload(window)
	oldRes, err := perfsim.Simulate(r.eng.Topology(), w, r.eng.SimPlacement(cur, r.cfg.Seed))
	if err != nil {
		return 0, 0, fmt.Errorf("placement: adaptive: modeling current mapping: %w", err)
	}
	newRes, err := perfsim.Simulate(r.eng.Topology(), w, r.eng.SimPlacement(candidate, r.cfg.Seed))
	if err != nil {
		return 0, 0, fmt.Errorf("placement: adaptive: modeling candidate mapping: %w", err)
	}
	gain = oldRes.Seconds - newRes.Seconds
	if cur.Unbound || candidate.Unbound {
		// No pinned state to move: adopting away from (or to) the OS
		// scheduler only pays the modeling delta.
		return gain, 0, nil
	}
	cost, err = perfsim.MigrationCost(r.eng.Topology(), w, cur.ComputePU, candidate.ComputePU)
	if err != nil {
		return 0, 0, fmt.Errorf("placement: adaptive: migration cost: %w", err)
	}
	return gain, cost, nil
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

// modelSparse is model on the affinity surface: the full cycle-level
// simulator needs a dense matrix, so sparse (and partitioned) epochs
// score candidates with the latency-only perfsim.CommSeconds model over
// the window's nonzeros — O(nnz), comparable across bindings of the
// same window, which is exactly the question here — and charge
// migration through the same MigrationCost as the dense path.
func (r *Reconciler) modelSparse(window comm.Affinity, cur, candidate *Assignment) (gain, cost float64, err error) {
	if cur.Unbound || candidate.Unbound {
		// The latency model scores pinned PU vectors; an unbound side
		// has none. Densify and use the full model — unbound strategies
		// are never the partitioned 10k-task path.
		return r.model(window.Dense(), cur, candidate)
	}
	top := r.eng.Topology()
	oldS, err := perfsim.CommSeconds(top, window, cur.ComputePU)
	if err != nil {
		return 0, 0, fmt.Errorf("placement: adaptive: modeling current mapping: %w", err)
	}
	newS, err := perfsim.CommSeconds(top, window, candidate.ComputePU)
	if err != nil {
		return 0, 0, fmt.Errorf("placement: adaptive: modeling candidate mapping: %w", err)
	}
	// The window spans WindowIterations iterations; the candidate
	// serves Horizon of them.
	gain = (oldS - newS) * float64(r.cfg.Horizon) / float64(r.cfg.WindowIterations)
	cost, err = perfsim.MigrationCost(top, r.migrationWorkload(window.Order()), cur.ComputePU, candidate.ComputePU)
	if err != nil {
		return 0, 0, fmt.Errorf("placement: adaptive: migration cost: %w", err)
	}
	return gain, cost, nil
}

// migrationWorkload synthesizes the per-thread state MigrationCost
// charges for (working sets, wakeups) without a dense Comm matrix —
// MigrationCost never reads Comm.
func (r *Reconciler) migrationWorkload(n int) *perfsim.Workload {
	var w perfsim.Workload
	if r.cfg.Workload != nil {
		w = *r.cfg.Workload
		return &w
	}
	w.Name = "adaptive-epoch"
	threads := make([]perfsim.Thread, n)
	for i := range threads {
		threads[i] = perfsim.Thread{
			ComputeCycles: 5e5,
			WorkingSet:    1 << 20,
			MemoryTraffic: 1 << 16,
		}
	}
	w.Threads = threads
	return &w
}

// modelWorkload builds the per-epoch performance-model input: the
// configured template (or a synthesized communication-dominated one)
// carrying the window's per-iteration traffic over the horizon.
func (r *Reconciler) modelWorkload(window *comm.Matrix) *perfsim.Workload {
	n := window.Order()
	var w perfsim.Workload
	if r.cfg.Workload != nil {
		w = *r.cfg.Workload
	} else {
		w.Name = "adaptive-epoch"
		threads := make([]perfsim.Thread, n)
		for i := range threads {
			threads[i] = perfsim.Thread{
				ComputeCycles: 5e5,
				WorkingSet:    1 << 20,
				MemoryTraffic: 1 << 16,
			}
		}
		w.Threads = threads
	}
	perIter := window
	if r.cfg.WindowIterations > 1 {
		// Scaled into the reconciler's own scratch: the model is not
		// linear in volume, so its result cannot be scaled instead.
		perIter = &r.perIter
		perIter.Reset(n)
		scale := 1 / float64(r.cfg.WindowIterations)
		for i := 0; i < n; i++ {
			src, dst := window.RowView(i), perIter.RowView(i)
			for j, v := range src {
				dst[j] = v * scale
			}
		}
	}
	w.Comm = perIter
	w.Iterations = r.cfg.Horizon
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
	moved := []int{}
	for t := 0; t < n; t++ {
		if old.ComputePU[t] != new_.ComputePU[t] ||
			(len(old.ControlPU) > 0 && old.ControlPU[t] != new_.ControlPU[t]) ||
			(len(old.CoreOf) > 0 && old.CoreOf[t] != new_.CoreOf[t]) {
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
