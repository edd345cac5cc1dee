package placement

import (
	"fmt"
	"sync"

	"orwlplace/internal/comm"
	"orwlplace/internal/orwl"
)

// Source is the seam for step 1 of the pipeline: where the
// communication affinity comes from. The paper extracts it once, from
// the declared handle graph at the schedule barrier (Declared); a
// feedback loop instead samples what the runtime actually measured
// (ObservedWindow); a replayed trace is Fixed. Everything downstream —
// the module, the mapping cache, the adaptive reconciler — consumes
// sources and stays oblivious to which kind feeds it, and to whether
// the affinity is stored dense or sparse.
type Source interface {
	// Name labels the source for diagnostics ("declared",
	// "observed-window", ...).
	Name() string
	// Affinity produces the current communication affinity. Sources over
	// live programs re-derive it per call; windowed sources advance
	// their window, so each call yields the next epoch.
	Affinity() (comm.Affinity, error)
}

// DeclaredSource derives the affinity from a program's declared handle
// graph — prog.DependencyMatrix(), behind the seam.
type DeclaredSource struct {
	Prog *orwl.Program
}

// Declared wraps a program's declared dependency graph as a source.
func Declared(prog *orwl.Program) *DeclaredSource {
	return &DeclaredSource{Prog: prog}
}

// Name implements Source.
func (s *DeclaredSource) Name() string { return "declared" }

// Affinity implements Source: the dense dependency matrix. It rejects a
// nil program and a program that has recorded no handle insertions yet
// — before the first WriteInsert/ReadInsert there is no dependency
// information to extract, and placing on an all-zero matrix silently
// degenerates to an arbitrary mapping.
func (s *DeclaredSource) Affinity() (comm.Affinity, error) {
	if s == nil || s.Prog == nil {
		return nil, fmt.Errorf("placement: declared source: nil program")
	}
	if s.Prog.InsertCount() == 0 && !s.Prog.Scheduled() {
		return nil, fmt.Errorf("placement: declared source: program has no handle insertions yet (call WriteInsert/ReadInsert before extracting, or schedule first)")
	}
	return s.Prog.DependencyMatrix(), nil
}

// ObservedSource samples the traffic the runtime instrumentation
// measured: what the tasks actually exchanged, not what their handle
// graph declared. Every Affinity call returns the traffic since this
// source's previous call (disjoint epochs — the adaptive reconciler's
// diet), as a *comm.Sparse. Each source owns its window, so several
// consumers (a reconciler, a module, a scraper) sample the same program
// without stealing each other's epochs.
type ObservedSource struct {
	Prog *orwl.Program

	winOnce sync.Once
	win     *orwl.TrafficWindow // lazily created per source
}

// ObservedWindow wraps a program's observed traffic as a windowed
// source: each Affinity call starts a new epoch.
func ObservedWindow(prog *orwl.Program) *ObservedSource {
	return &ObservedSource{Prog: prog}
}

// Name implements Source.
func (s *ObservedSource) Name() string { return "observed-window" }

// Affinity implements Source.
func (s *ObservedSource) Affinity() (comm.Affinity, error) {
	if s == nil || s.Prog == nil {
		return nil, fmt.Errorf("placement: observed source: nil program")
	}
	s.winOnce.Do(func() { s.win = s.Prog.Traffic().NewWindow() })
	return s.win.NextAffinity(), nil
}

// FixedSource serves a constant affinity — replayed traces, tests, and
// the simulate tool's phase scripts.
type FixedSource struct {
	Label string
	A     comm.Affinity
}

// Fixed wraps a constant affinity, dense or sparse, as a source.
func Fixed(label string, a comm.Affinity) *FixedSource {
	return &FixedSource{Label: label, A: a}
}

// Name implements Source.
func (s *FixedSource) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "fixed"
}

// Affinity implements Source.
func (s *FixedSource) Affinity() (comm.Affinity, error) {
	if s == nil || comm.NilAffinity(s.A) {
		return nil, fmt.Errorf("placement: fixed source: nil affinity")
	}
	return s.A, nil
}
