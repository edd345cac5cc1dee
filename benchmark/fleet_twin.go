package main

import (
	"context"
	"fmt"
	"slices"

	"orwlplace"
	"orwlplace/internal/comm"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/orwl"
	"orwlplace/internal/perfsim"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// fleetTwin is the traced pass's reference and probe for a fleet
// workload. Its controller has no wire in between and is fed the same
// windows, generated directly instead of recorded and reported: after
// every cycle it must agree with the daemon on (adopted?, epoch,
// ComputePU). Around that check it times direct calls into each layer on
// the cycle's own inputs — outside the measured cycle, so the check and
// the probes cost the cycle nothing.
type fleetTwin struct {
	machine string
	top     *topology.Topology
	eng     *placement.Engine

	ctrl   *ctrlplane.Controller
	leases [peers]uint64
	seq    uint64

	// col is a bare collector fed the same windows, so merge and drain
	// can be timed apart from the epoch.
	col       *ctrlplane.Collector
	colLeases [peers]uint64

	// cur and base are the assignment in force before the cycle and the
	// window it was adopted under: what the daemon's reconciler measures
	// drift against.
	cur  *placement.Assignment
	base comm.Affinity

	// spare reports the same windows under a lease on spareMachine, from
	// a spare program, to time window extraction and the report round
	// trip without merging into the machine under test.
	spareRS    *orwlplace.RemotePlacement
	spareProg  *orwl.Program
	spareLease uint64
	spareSeq   uint64
	bindProg   *orwl.Program

	reportBytes []float64 // request bytes of every spare report
	ackBytes    float64   // response bytes of one observed report

	probeErr error // first error a layer probe returned
}

// note keeps the first error of a layer probe: a probe that failed timed
// nothing meaningful, so the cycle it belongs to is counted as failed.
func (t *fleetTwin) note(err error) {
	if err != nil && t.probeErr == nil {
		t.probeErr = err
	}
}

// attachTwin builds the twin for a freshly set-up world and replays the
// priming window into it. The caller must attach before driving any
// further cycle.
func (w *fleetWorld) attachTwin(tr *tracer) error {
	spec := w.spec
	top, err := w.d.topology(spec.machine)
	if err != nil {
		return err
	}
	t := &fleetTwin{machine: spec.machine, top: top, col: ctrlplane.NewCollector(-1)}
	if t.eng, err = placement.NewEngine(top); err != nil {
		return err
	}
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine(spec.machine, top); err != nil {
		return err
	}
	if t.ctrl, err = ctrlplane.NewController(fleet, ctrlplane.Config{Adaptive: fleetAdaptive, StaleAfter: -1}); err != nil {
		return err
	}
	for i, p := range w.peers {
		peer := fmt.Sprintf("peer-%d", i)
		lease, err := t.ctrl.Register(spec.machine, peer, p.base, spec.tasks)
		if err != nil {
			return err
		}
		t.leases[i] = lease.ID
		if lease, err = t.col.Register(spec.machine, peer, p.base, spec.tasks); err != nil {
			return err
		}
		t.colLeases[i] = lease.ID
	}
	ctx := context.Background()
	if t.spareRS, err = orwlplace.DialPlacement(ctx, w.d.addr); err != nil {
		return err
	}
	w.twin = t // from here on close() releases the spare connection
	if t.spareProg, err = orwl.NewProgram(spec.tasks); err != nil {
		return err
	}
	if t.bindProg, err = orwl.NewProgram(spec.tasks); err != nil {
		return err
	}
	if t.spareLease, err = t.spareRS.RegisterLease(ctx, spareMachine, "spare", 0, spec.tasks); err != nil {
		return err
	}

	// Replay the priming window: the twin adopts its epoch 1 and must
	// already agree with the daemon.
	priming := w.globalWindow()
	tr.newTrace()
	root := tr.begin(openSpan{}, "benchmark", "twin")
	var mapErr error
	tr.timed(root, "treematch", "treematch.map_affinity", func() {
		_, mapErr = treematch.MapAffinity(top, priming, fleetAdaptive.Options)
	})
	tr.end(root)
	if mapErr != nil {
		return mapErr
	}
	rep, err := t.feed(w.localWindows())
	if err != nil {
		return err
	}
	if !rep.Adopted || !t.agrees(w) {
		return fmt.Errorf("twin controller disagrees with the daemon on the priming epoch")
	}
	t.remember(w, priming)
	return nil
}

func (t *fleetTwin) close() { t.spareRS.Close() }

// localWindows generates every peer's current window, peer-local.
func (w *fleetWorld) localWindows() (locals [peers]*comm.Sparse) {
	for i, p := range w.peers {
		locals[i] = p.cl.window()
	}
	return locals
}

// feed reports every peer's window to the twin controller and runs its
// epoch.
func (t *fleetTwin) feed(locals [peers]*comm.Sparse) (*placement.EpochReport, error) {
	t.seq++
	for i, local := range locals {
		if err := t.ctrl.ReportAffinity(t.leases[i], t.seq, local); err != nil {
			return nil, err
		}
	}
	rep, err := t.ctrl.Epoch(t.machine)
	if err == nil && rep == nil {
		err = fmt.Errorf("twin controller saw an idle window")
	}
	return rep, err
}

// agrees compares the twin's latest adoption with the daemon's.
func (t *fleetTwin) agrees(w *fleetWorld) bool {
	mine, theirs := t.ctrl.Latest(t.machine), w.d.ctrl.Latest(t.machine)
	return mine != nil && theirs != nil && mine.Epoch == theirs.Epoch &&
		slices.Equal(mine.Assignment.ComputePU, theirs.Assignment.ComputePU)
}

// remember records the daemon's adoption as the new drift baseline.
func (t *fleetTwin) remember(w *fleetWorld, window comm.Affinity) {
	t.cur = w.d.ctrl.Latest(t.machine).Assignment
	t.base = window
}

// step runs after a measured cycle: the layer probes on the cycle's
// inputs (traced only), then the twin controller's own epoch and the
// agreement check. It reports whether the twin agreed.
func (t *fleetTwin) step(tr *tracer, w *fleetWorld, shift bool, c cycleResult) bool {
	window, locals := w.globalWindow(), w.localWindows()
	if tr != nil {
		t.probe(tr, w, window, locals, shift, c)
	}
	rep, err := t.feed(locals)
	ok := err == nil && t.probeErr == nil && c.rep != nil && rep.Adopted == c.rep.Adopted && t.agrees(w)
	if c.adopted {
		t.remember(w, window)
	}
	return ok
}

// probe times direct calls into each layer on this cycle's inputs. The
// spans hang under a "twin" root in the cycle's trace.
func (t *fleetTwin) probe(tr *tracer, w *fleetWorld, window comm.Affinity, locals [peers]*comm.Sparse, shift bool, c cycleResult) {
	ctx := context.Background()
	root := tr.begin(openSpan{}, "benchmark", "twin")
	defer tr.end(root)

	// ctrlplane: merge both peers' windows, drain the merged one.
	seq := t.seq + 1
	for i, local := range locals {
		tr.timed(root, "ctrlplane", "ctrlplane.merge", func() { t.note(t.col.ReportAffinity(t.colLeases[i], seq, local)) })
	}
	var merged comm.Affinity
	tr.timed(root, "ctrlplane", "ctrlplane.window", func() { merged = t.col.WindowAffinity(t.machine) })
	if merged != nil {
		tr.observe("comm.window_nnz", float64(merged.NNZ()))
	}

	// placement: drift of the window against the baseline in force,
	// dispatched as Reconciler.Epoch does.
	parts := t.cur.Partitions
	partitioned := parts != nil && len(parts.Parts) > 0
	baseDense, _ := t.base.(*comm.Matrix)
	dense, _ := window.(*comm.Matrix)
	var drifts []float64
	tr.timed(root, "placement", "placement.drift", func() {
		switch {
		case partitioned:
			drifts = placement.PartitionDrift(parts, t.base, window)
		case baseDense != nil && dense != nil:
			placement.Drift(baseDense, dense)
		default:
			placement.DriftAffinity(t.base, window)
		}
	})

	// orwl + orwlnet: extract the same window from a spare program and
	// report it under the spare lease.
	p0 := w.peers[0]
	p0.cl.record(t.spareProg.Traffic())
	var observed *comm.Matrix
	tr.timed(root, "orwl", "orwl.window", func() { observed = t.spareProg.ObservedWindow() })
	t.spareSeq++
	in0, out0 := t.spareRS.WirePoolStats()
	tr.timed(root, "orwlnet", "orwlnet.report_rtt", func() { t.note(t.spareRS.ReportObserved(ctx, t.spareLease, t.spareSeq, observed)) })
	in1, out1 := t.spareRS.WirePoolStats()
	t.reportBytes = append(t.reportBytes, float64(out1-out0))
	t.ackBytes = float64(in1 - in0)

	if !shift {
		return
	}
	// treematch: what the epoch's recompute runs — the drifted
	// partitions re-placed, or the whole window mapped.
	if partitioned {
		mp := t.cur.Mapping(t.top)
		for pi, d := range drifts {
			if d > driftThreshold {
				tr.timed(root, "treematch", "treematch.remap_partition", func() {
					t.note(treematch.RemapPartition(mp, window, parts.Parts[pi], fleetAdaptive.Options))
				})
			}
		}
	} else {
		if dense == nil {
			dense = window.Dense()
		}
		tr.timed(root, "treematch", "treematch.map", func() {
			_, err := treematch.Map(t.top, dense, fleetAdaptive.Options)
			t.note(err)
		})
	}
	if !c.adopted {
		return
	}
	// perfsim: the model the epoch scores the adopted assignment with —
	// the cycle-level simulator on a dense window, the latency-only
	// model on a partitioned one.
	adopted := w.d.ctrl.Latest(t.machine)
	tr.timed(root, "perfsim", "perfsim.simulate", func() {
		var err error
		if partitioned {
			_, err = perfsim.CommSeconds(t.top, window, adopted.Assignment.ComputePU)
		} else {
			_, err = perfsim.Simulate(t.top, modelWorkload(dense), t.eng.SimPlacement(adopted.Assignment, 0))
		}
		t.note(err)
	})
	// placement: the re-bind ApplyRemap does for peer 0 — the moved
	// tasks when the remap names them, the whole lease otherwise.
	local := &placement.Assignment{Strategy: adopted.Assignment.Strategy, ComputePU: adopted.Assignment.ComputePU[p0.base : p0.base+w.spec.tasks]}
	tr.timed(root, "placement", "placement.bind", func() {
		if adopted.MovedTasks == nil {
			t.note(placement.Bind(t.bindProg, local))
			return
		}
		var moved []int
		for _, task := range adopted.MovedTasks {
			if task >= p0.base && task < p0.base+w.spec.tasks {
				moved = append(moved, task-p0.base)
			}
		}
		t.note(placement.BindTasks(t.bindProg, local, moved))
	})
}

// driftThreshold is placement.AdaptiveConfig's default, which the fleet
// workloads keep.
const driftThreshold = 0.25

// modelWorkload is the performance-model input the reconciler
// synthesizes for a window when no template is configured: a
// communication-dominated workload over the adaptive horizon.
func modelWorkload(window *comm.Matrix) *perfsim.Workload {
	threads := make([]perfsim.Thread, window.Order())
	for i := range threads {
		threads[i] = perfsim.Thread{ComputeCycles: 5e5, WorkingSet: 1 << 20, MemoryTraffic: 1 << 16}
	}
	return &perfsim.Workload{Name: "adaptive-epoch", Threads: threads, Comm: window, Iterations: fleetAdaptive.Horizon}
}
