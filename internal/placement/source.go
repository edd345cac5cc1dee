package placement

import (
	"fmt"
	"sync"

	"orwlplace/internal/comm"
	"orwlplace/internal/orwl"
)

// MatrixSource is the seam for step 1 of the pipeline: where the
// communication matrix comes from. The paper extracts it once, from
// the declared handle graph at the schedule barrier (DeclaredSource);
// a feedback loop instead samples what the runtime actually measured
// (ObservedSource). Everything downstream — Compute, the mapping
// cache, the service surface, the adaptive reconciler — consumes
// sources and stays oblivious to which kind feeds it.
type MatrixSource interface {
	// Name labels the source for diagnostics ("declared", "observed",
	// "observed-window", ...).
	Name() string
	// Matrix produces the current communication matrix. Sources over
	// live programs re-derive it per call; windowed sources advance
	// their window, so each call yields the next epoch.
	Matrix() (*comm.Matrix, error)
}

// AffinitySource is MatrixSource lifted onto the representation-
// independent surface: sources whose natural representation is sparse
// (fleet matrices, observed counters above the dense threshold) serve
// it without ever materializing n². Dense sources adapt via
// AffinityOf.
type AffinitySource interface {
	// Name labels the source for diagnostics.
	Name() string
	// Affinity produces the current communication affinity. Windowed
	// sources advance their window per call, like MatrixSource.Matrix.
	Affinity() (comm.Affinity, error)
}

// matrixAffinitySource adapts a MatrixSource as an AffinitySource: the
// dense matrix is served as its own affinity.
type matrixAffinitySource struct{ src MatrixSource }

// AffinityOf adapts a MatrixSource as an AffinitySource. Sources that
// already implement AffinitySource are returned as-is.
func AffinityOf(src MatrixSource) AffinitySource {
	if a, ok := src.(AffinitySource); ok {
		return a
	}
	return &matrixAffinitySource{src: src}
}

// Name implements AffinitySource.
func (s *matrixAffinitySource) Name() string { return s.src.Name() }

// Affinity implements AffinitySource.
func (s *matrixAffinitySource) Affinity() (comm.Affinity, error) {
	m, err := s.src.Matrix()
	if err != nil || m == nil {
		return nil, err
	}
	return m, nil
}

// FixedAffinitySource serves a constant affinity — sparse traces and
// large-scale tests, the affinity-surface sibling of FixedSource.
type FixedAffinitySource struct {
	Label string
	A     comm.Affinity
}

// FixedAffinity wraps a constant affinity as a source.
func FixedAffinity(label string, a comm.Affinity) *FixedAffinitySource {
	return &FixedAffinitySource{Label: label, A: a}
}

// Name implements AffinitySource.
func (s *FixedAffinitySource) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "fixed-affinity"
}

// Affinity implements AffinitySource.
func (s *FixedAffinitySource) Affinity() (comm.Affinity, error) {
	if s == nil || s.A == nil {
		return nil, fmt.Errorf("placement: fixed affinity source: nil affinity")
	}
	return s.A, nil
}

// DeclaredSource derives the matrix from a program's declared handle
// graph — today's prog.DependencyMatrix(), behind the seam.
type DeclaredSource struct {
	Prog *orwl.Program
}

// Declared wraps a program's declared dependency graph as a source.
func Declared(prog *orwl.Program) *DeclaredSource {
	return &DeclaredSource{Prog: prog}
}

// Name implements MatrixSource.
func (s *DeclaredSource) Name() string { return "declared" }

// Matrix implements MatrixSource. It rejects a nil program and a
// program that has recorded no handle insertions yet — before the
// first WriteInsert/ReadInsert there is no dependency information to
// extract, and placing on an all-zero matrix silently degenerates to
// an arbitrary mapping.
func (s *DeclaredSource) Matrix() (*comm.Matrix, error) {
	if s == nil || s.Prog == nil {
		return nil, fmt.Errorf("placement: declared source: nil program")
	}
	if s.Prog.InsertCount() == 0 && !s.Prog.Scheduled() {
		return nil, fmt.Errorf("placement: declared source: program has no handle insertions yet (call WriteInsert/ReadInsert before extracting, or schedule first)")
	}
	return s.Prog.DependencyMatrix(), nil
}

// ObservedSource samples the matrix the runtime instrumentation
// measured: what the tasks actually exchanged, not what their handle
// graph declared. With Windowed set, every Matrix call returns the
// traffic since this source's previous call (disjoint epochs — the
// adaptive reconciler's diet); otherwise it returns the cumulative
// matrix. Each windowed source owns its baseline, so several
// consumers (a reconciler, a module, a scraper) sample the same
// program without stealing each other's epochs.
type ObservedSource struct {
	Prog     *orwl.Program
	Windowed bool

	winOnce sync.Once
	win     *orwl.TrafficWindow // lazily created per source
}

// Observed wraps a program's cumulative observed traffic as a source.
func Observed(prog *orwl.Program) *ObservedSource {
	return &ObservedSource{Prog: prog}
}

// ObservedWindow wraps a program's observed traffic as a windowed
// source: each Matrix call starts a new epoch.
func ObservedWindow(prog *orwl.Program) *ObservedSource {
	return &ObservedSource{Prog: prog, Windowed: true}
}

// Name implements MatrixSource.
func (s *ObservedSource) Name() string {
	if s.Windowed {
		return "observed-window"
	}
	return "observed"
}

// Matrix implements MatrixSource.
func (s *ObservedSource) Matrix() (*comm.Matrix, error) {
	if s == nil || s.Prog == nil {
		return nil, fmt.Errorf("placement: observed source: nil program")
	}
	if s.Windowed {
		s.winOnce.Do(func() { s.win = s.Prog.Traffic().NewWindow() })
		return s.win.Next(), nil
	}
	return s.Prog.ObservedMatrix(), nil
}

// Affinity implements AffinitySource: the same counters and the same
// window as Matrix (a windowed source advances one shared window
// whichever surface is called), served sparse above the dense
// threshold — a window at any order, when it holds at most n²/8
// nonzeros. AffinityOf therefore returns observed sources as-is.
func (s *ObservedSource) Affinity() (comm.Affinity, error) {
	if s == nil || s.Prog == nil {
		return nil, fmt.Errorf("placement: observed source: nil program")
	}
	if s.Windowed {
		s.winOnce.Do(func() { s.win = s.Prog.Traffic().NewWindow() })
		return s.win.NextAffinity(), nil
	}
	return s.Prog.ObservedAffinity(), nil
}

// FixedSource serves a constant matrix — replayed traces, tests, and
// the simulate tool's phase scripts.
type FixedSource struct {
	Label string
	M     *comm.Matrix
}

// Fixed wraps a constant matrix as a source.
func Fixed(label string, m *comm.Matrix) *FixedSource {
	return &FixedSource{Label: label, M: m}
}

// Name implements MatrixSource.
func (s *FixedSource) Name() string {
	if s.Label != "" {
		return s.Label
	}
	return "fixed"
}

// Matrix implements MatrixSource.
func (s *FixedSource) Matrix() (*comm.Matrix, error) {
	if s == nil || s.M == nil {
		return nil, fmt.Errorf("placement: fixed source: nil matrix")
	}
	return s.M, nil
}
