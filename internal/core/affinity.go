// Package core implements the paper's contribution: the automatic,
// abstracted and portable affinity module for the ORWL runtime (§IV).
//
// Attached to an orwl.Program, the module hooks the orwl_schedule
// barrier: at that point the runtime knows every task, every location
// and every handle, so the module derives the communication matrix,
// obtains the machine topology, runs the adapted TreeMatch algorithm
// and binds each task's compute (and control) threads — with no change
// to the application code. The fully automatic mode is switched on by
// the ORWL_AFFINITY environment variable, exactly as in the paper; the
// advanced API (DependencyGet, AffinityCompute, AffinitySet) exposes
// the three steps separately for debugging and for dynamic task graphs
// whose communication matrix changes at run time.
//
// The module is a thin shim over an in-process placement.Engine, which
// owns matrix-to-assignment mapping; this package keeps the paper-named
// three-step surface, the environment gating, and the purely local
// steps (matrix extraction, binding commit). A program that places
// through a remote daemon uses the orwlplace facade's DialPlacement and
// PlaceOn instead.
package core

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"orwlplace/internal/comm"
	"orwlplace/internal/orwl"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// EnvVar is the environment variable that activates the fully automatic
// mode (ORWL_AFFINITY=1).
const EnvVar = "ORWL_AFFINITY"

// EnabledByEnv reports whether the automatic affinity mode is requested
// by the environment.
func EnabledByEnv() bool {
	v := strings.TrimSpace(os.Getenv(EnvVar))
	return v == "1" || strings.EqualFold(v, "true") || strings.EqualFold(v, "yes")
}

// Module is one affinity-module instance bound to a program and an
// in-process placement engine.
type Module struct {
	mu   sync.Mutex
	prog *orwl.Program
	eng  *placement.Engine
	svc  *placement.LocalService

	matrix *comm.Matrix
	asgn   *placement.Assignment
}

// Option customises a Module.
type Option func(*Module)

// WithEngine shares an existing placement engine (and therefore its
// mapping cache) across modules. Dynamic programs that oscillate
// between phases attach one module per phase to a common engine so a
// recurring communication matrix pays the mapping cost once.
func WithEngine(e *placement.Engine) Option {
	return func(m *Module) { m.eng = e }
}

// Attach creates the affinity module for a program on a machine. It
// does not install the automatic hook; call EnableAutomatic for the
// paper's transparent mode, or drive the three-step API manually.
func Attach(prog *orwl.Program, top *topology.Topology, opts ...Option) (*Module, error) {
	if prog == nil {
		return nil, fmt.Errorf("core: nil program")
	}
	m := &Module{prog: prog}
	for _, o := range opts {
		o(m)
	}
	if m.eng == nil {
		if top == nil {
			return nil, fmt.Errorf("core: nil topology")
		}
		eng, err := placement.NewEngine(top)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		m.eng = eng
	} else if top != nil && placement.Signature(top) != m.eng.TopologySignature() {
		// A shared engine places on its own machine; silently accepting
		// a different topology would bind tasks to PUs that do not
		// exist on it.
		return nil, fmt.Errorf("core: topology %q does not match engine's %q",
			top.Attrs.Name, m.eng.Topology().Attrs.Name)
	}
	svc, err := placement.NewLocalService(m.eng)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m.svc = svc
	return m, nil
}

// EnableAutomatic installs the schedule hook implementing the fully
// automatic mode: when the last task reaches orwl_schedule, the module
// computes and applies the optimized binding, transparently to the
// application. When force is false the hook is installed only if
// ORWL_AFFINITY is set in the environment; the returned bool says
// whether automatic mode is active.
func EnableAutomatic(prog *orwl.Program, top *topology.Topology, force bool, opts ...Option) (*Module, bool, error) {
	m, err := Attach(prog, top, opts...)
	if err != nil {
		return nil, false, err
	}
	if !force && !EnabledByEnv() {
		return m, false, nil
	}
	prog.SetScheduleHook(func(p *orwl.Program) {
		// Failures must not break the application: affinity is an
		// optimisation. The program simply runs unbound.
		if err := m.DependencyGet(); err != nil {
			return
		}
		if err := m.AffinityCompute(); err != nil {
			return
		}
		_ = m.AffinitySet()
	})
	return m, true, nil
}

// Engine exposes the underlying placement engine, for cache statistics
// and direct strategy access.
func (m *Module) Engine() *placement.Engine { return m.eng }

// DependencyGet re-extracts the communication matrix from the
// program's declared handle graph (orwl_dependency_get). Extraction is
// always local: the runtime state lives in this process. The
// previously computed assignment is invalidated.
func (m *Module) DependencyGet() error {
	a, err := placement.Declared(m.prog).Affinity()
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	m.mu.Lock()
	m.matrix = a.Dense() // the placement request carries a dense matrix
	m.asgn = nil
	m.mu.Unlock()
	return nil
}

// AffinityCompute runs TreeMatch on the current communication matrix
// and the hardware topology (orwl_affinity_compute). DependencyGet must
// have been called. A matrix already seen by the engine is served from
// its mapping cache.
func (m *Module) AffinityCompute() error {
	m.mu.Lock()
	mat := m.matrix
	m.mu.Unlock()
	if mat == nil {
		return fmt.Errorf("core: AffinityCompute before DependencyGet")
	}
	resp, err := m.svc.Place(context.Background(), &placement.PlaceRequest{
		Strategy: placement.TreeMatch,
		Matrix:   mat,
		Options:  placement.Options{ControlThreads: true},
	})
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	m.mu.Lock()
	m.asgn = resp.Assignment
	m.mu.Unlock()
	return nil
}

// AffinitySet commits the computed mapping: every task's compute thread
// (and, when resources allow, its control threads) is bound
// (orwl_affinity_set). On this Go reproduction the binding is recorded
// on the program — the performance simulator and the reporting tools
// consume it — because goroutines cannot be pinned portably.
func (m *Module) AffinitySet() error {
	m.mu.Lock()
	asgn := m.asgn
	m.mu.Unlock()
	if asgn == nil {
		return fmt.Errorf("core: AffinitySet before AffinityCompute")
	}
	return placement.Bind(m.prog, asgn)
}

// Matrix returns the last communication matrix, or nil.
func (m *Module) Matrix() *comm.Matrix {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.matrix
}

// Assignment returns the last computed assignment, or nil.
func (m *Module) Assignment() *placement.Assignment {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.asgn
}

// Mapping returns the last computed mapping in the paper's result
// shape, or nil.
func (m *Module) Mapping() *treematch.Mapping {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.asgn.Mapping(m.eng.Topology())
}

// RenderMapping renders a task allocation like the paper's Fig. 2: for
// every socket, the cores and the tasks bound to them. taskNames may be
// nil, in which case tasks are shown by id.
func RenderMapping(mapping *treematch.Mapping, taskNames []string) string {
	if mapping == nil {
		return "(no mapping)\n"
	}
	top := mapping.Top
	taskOnPU := make(map[int][]string)
	name := func(t int) string {
		if taskNames != nil && t < len(taskNames) && taskNames[t] != "" {
			return fmt.Sprintf("%d:%s", t, taskNames[t])
		}
		return fmt.Sprintf("%d", t)
	}
	for t, pu := range mapping.ComputePU {
		taskOnPU[pu] = append(taskOnPU[pu], name(t))
	}
	for t, pu := range mapping.ControlPU {
		if pu >= 0 {
			taskOnPU[pu] = append(taskOnPU[pu], name(t)+"(ctl)")
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "task allocation on %s (control mode: %s)\n",
		top.Attrs.Name, mapping.Mode)
	groups := top.Objects(topology.Group)
	if len(groups) == 0 {
		groups = []*topology.Object{top.Root}
	}
	for _, g := range groups {
		if g.Type == topology.Group {
			fmt.Fprintf(&b, "%s\n", g)
		}
		for _, pu := range g.PUs() {
			core := pu.AncestorOfType(topology.Core)
			if core == nil {
				// A PU without a Core ancestor (degenerate trees) gets
				// its own line.
				cell := append([]string(nil), taskOnPU[pu.LogicalIndex]...)
				sort.Strings(cell)
				line := "-"
				if len(cell) > 0 {
					line = strings.Join(cell, ", ")
				}
				fmt.Fprintf(&b, "    pu %2d: %s\n", pu.LogicalIndex, line)
				continue
			}
			if core.Children[0] != pu {
				// Render per-core lines only once, on the first PU;
				// siblings are folded into the same line below.
				continue
			}
			sock := pu.AncestorOfType(topology.Socket)
			if core.LogicalIndex%8 == 0 && sock != nil {
				fmt.Fprintf(&b, "  %s\n", sock)
			}
			var cell []string
			for _, sib := range core.Children {
				cell = append(cell, taskOnPU[sib.LogicalIndex]...)
			}
			sort.Strings(cell)
			if len(cell) == 0 {
				fmt.Fprintf(&b, "    core %2d: -\n", core.LogicalIndex)
			} else {
				fmt.Fprintf(&b, "    core %2d: %s\n", core.LogicalIndex, strings.Join(cell, ", "))
			}
		}
	}
	return b.String()
}
