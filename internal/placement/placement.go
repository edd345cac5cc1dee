// Package placement unifies the paper's three-step placement pipeline
// — dependency extraction, topology-aware mapping, binding commit —
// behind one engine with a closed strategy table and a mapping cache.
//
// The paper's contribution (the TreeMatch-based affinity module) and
// the topology-oblivious baselines it is evaluated against
// (KMP_AFFINITY=compact/scatter-style policies, plus the unbound OS
// scheduler) are rows of one table. Consumers — the core affinity
// module, the experiments harness, the simulator front ends — iterate
// Names or name a strategy instead of wiring algorithm calls by hand.
//
// The Engine memoises computed assignments keyed by (topology
// signature, matrix fingerprint, strategy, options), so dynamic
// programs that oscillate between a small set of communication
// patterns pay the mapping cost once per distinct pattern.
package placement

import (
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// Options tunes the mapping algorithms. Oblivious strategies ignore
// it; the treematch strategy forwards it to Algorithm 1.
type Options = treematch.Options

// Assignment is the outcome of one strategy run: where every compute
// entity (and, when the strategy manages them, its control threads)
// goes. The zero slices of the unbound baseline mean "leave placement
// to the OS scheduler".
type Assignment struct {
	// Strategy is the name of the strategy that produced the assignment.
	Strategy string
	// Unbound is true for the none baseline: no binding is applied and
	// the OS scheduler places (and migrates) the threads.
	Unbound bool
	// ComputePU[i] is the logical PU index entity i is bound to.
	ComputePU []int
	// ControlPU[i] is the PU for entity i's control threads, or -1 when
	// they are left to the OS. Nil when the strategy does not manage
	// control threads.
	ControlPU []int
	// Mode records how control threads were accounted for.
	Mode treematch.ControlMode
	// Oversubscribed is true when there were more entities than cores.
	Oversubscribed bool
	// CoreOf[i] is the logical core index entity i runs on (diagnostic;
	// nil for strategies that do not track it).
	CoreOf []int
	// Partitions records the partition structure when the mapping came
	// from the partitioned path (treematch.MapAffinity above
	// Options.PartitionThreshold); nil otherwise. The adaptive
	// reconciler keys its per-subtree drift tracking on it.
	Partitions *treematch.Partitioning
}

// Entities returns the number of placed entities.
func (a *Assignment) Entities() int { return len(a.ComputePU) }

// Clone returns a deep copy. An assignment handed out by an Engine, a
// Service, a Reconciler or the fleet Controller is an immutable shared
// value; code that edits one edits a Clone.
func (a *Assignment) Clone() *Assignment {
	if a == nil {
		return nil
	}
	c := *a
	c.ComputePU = append([]int(nil), a.ComputePU...)
	c.ControlPU = append([]int(nil), a.ControlPU...)
	c.CoreOf = append([]int(nil), a.CoreOf...)
	c.Partitions = a.Partitions.Clone()
	return &c
}

// Mapping converts the assignment into the treematch result type, the
// compatibility surface of the paper-named core API (RenderMapping,
// Mapping().Mode, ...). Returns nil for unbound assignments.
func (a *Assignment) Mapping(top *topology.Topology) *treematch.Mapping {
	if a == nil || a.Unbound {
		return nil
	}
	// Copy-on-write: RemapPartition edits the mapping in place, and a is
	// a shared, immutable value.
	m := a.Clone()
	return &treematch.Mapping{
		Top:            top,
		ComputePU:      m.ComputePU,
		ControlPU:      m.ControlPU,
		Mode:           m.Mode,
		Oversubscribed: m.Oversubscribed,
		CoreOf:         m.CoreOf,
		Partitions:     m.Partitions,
	}
}

// fromMapping wraps a treematch result as an assignment.
func fromMapping(strategy string, mp *treematch.Mapping) *Assignment {
	return &Assignment{
		Strategy:       strategy,
		ComputePU:      mp.ComputePU,
		ControlPU:      mp.ControlPU,
		Mode:           mp.Mode,
		Oversubscribed: mp.Oversubscribed,
		CoreOf:         mp.CoreOf,
		Partitions:     mp.Partitions,
	}
}
