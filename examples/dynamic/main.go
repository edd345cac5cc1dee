// Dynamic affinity example: closing the placement loop (the paper's
// advanced API, §IV-B, grown into a feedback loop).
//
// The paper computes a mapping once, at the schedule barrier, from the
// *declared* handle graph. This example runs a program whose actual
// traffic drifts away from that declaration mid-run: phase 1 exercises
// the declared pipeline, then the tasks switch to a clustered exchange
// the initial mapping is wrong for. The runtime's traffic counters see
// the shift; an adaptive reconciler measures the drift of each
// observed window, re-places through TreeMatch, and adopts
// the new mapping because the perfsim-modeled gain beats the modeled
// migration cost — recovering most of the performance the static
// mapping loses.
package main

import (
	"fmt"
	"log"
	"time"

	"orwlplace/internal/core"
	"orwlplace/internal/orwl"
	"orwlplace/internal/perfsim"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

const (
	tasks    = 16 // spans two sockets of the Fig. 2 machine
	locSize  = 1 << 16
	phaseLen = 20 // critical sections per task per phase
)

// wire declares the pipeline dependencies — the only thing the
// schedule barrier (and hence the paper's one-shot placement) ever
// sees. The "clus" locations exist but declare no cross-task handles:
// phase 2 reaches them through steady-state requests invisible to the
// declared graph.
func wire(ctx *orwl.TaskContext, w, r *orwl.Handle) error {
	if err := ctx.Scale("pipe", locSize); err != nil {
		return err
	}
	if err := ctx.Scale("clus", locSize); err != nil {
		return err
	}
	if err := ctx.WriteInsert(w, orwl.Loc(ctx.TID(), "pipe"), 0); err != nil {
		return err
	}
	if ctx.TID() > 0 {
		if err := ctx.ReadInsert(r, orwl.Loc(ctx.TID()-1, "pipe"), 1); err != nil {
			return err
		}
	}
	return ctx.Schedule()
}

// runPipelinePhase drives the declared pattern: each task writes its
// own pipe location and reads its predecessor's, phaseLen times.
func runPipelinePhase(ctx *orwl.TaskContext, w, r *orwl.Handle) error {
	for i := 0; i < phaseLen; i++ {
		if err := w.Section(func([]byte) error { return nil }); err != nil {
			return err
		}
		if r != nil {
			if err := r.Section(func([]byte) error { return nil }); err != nil {
				return err
			}
		}
	}
	return nil
}

// runClusterPhase drives the shifted pattern through steady-state
// requests: the even tasks and the odd tasks become two dense cliques
// — the stride-2 pairing whose members a pipeline-computed mapping
// scattered across both sockets.
func runClusterPhase(ctx *orwl.TaskContext) error {
	for i := 0; i < phaseLen; i++ {
		w, err := ctx.Request(orwl.Loc(ctx.TID(), "clus"), orwl.Write)
		if err != nil {
			return err
		}
		w.Await()
		if err := w.Release(); err != nil {
			return err
		}
		for peer := (ctx.TID() + 2) % tasks; peer != ctx.TID(); peer = (peer + 2) % tasks {
			r, err := ctx.Request(orwl.Loc(peer, "clus"), orwl.Read)
			if err != nil {
				return err
			}
			r.Await()
			if err := r.Release(); err != nil {
				return err
			}
		}
	}
	return nil
}

// modelSeconds costs a mapping under the workload's communication
// pattern with the performance simulator.
func modelSeconds(top *topology.Topology, a *placement.Assignment, w *perfsim.Workload) float64 {
	res, err := perfsim.Simulate(top, w, &perfsim.Placement{
		ComputePU:  a.ComputePU,
		ControlPU:  a.ControlPU,
		LocalAlloc: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.Seconds
}

func main() {
	top := topology.Fig2Machine()
	eng, err := placement.NewEngine(top)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := orwl.NewProgram(tasks, "pipe", "clus")
	if err != nil {
		log.Fatal(err)
	}

	// The paper's automatic mode: the schedule hook places from the
	// declared (pipeline) matrix.
	mod, _, err := core.EnableAutomatic(prog, top, true, core.WithEngine(eng))
	if err != nil {
		log.Fatal(err)
	}

	// The feedback loop: an adaptive reconciler fed by the program's
	// windowed observed traffic.
	rec, err := placement.NewReconciler(eng, placement.ObservedWindow(prog), prog, placement.AdaptiveConfig{
		Horizon:          200,
		WindowIterations: phaseLen, // each window spans one phase
	})
	if err != nil {
		log.Fatal(err)
	}

	phase2 := make(chan struct{})
	done := make(chan struct{})
	reports := make(chan string, 8)

	go func() {
		defer close(done)
		err := prog.Run(func(ctx *orwl.TaskContext) error {
			w, r := orwl.NewHandle2(), orwl.NewHandle2()
			if ctx.TID() == 0 {
				r = nil
			}
			if err := wire(ctx, w, r); err != nil {
				return err
			}
			if err := runPipelinePhase(ctx, w, r); err != nil {
				return err
			}
			<-phase2 // barrier: the reconciler samples between phases
			return runClusterPhase(ctx)
		})
		if err != nil {
			log.Fatal(err)
		}
	}()

	// Epoch 1: the pipeline phase has run (the (tasks-1)*phaseLen read
	// releases have all been recorded); the observed window matches
	// the declared matrix, so the loop keeps the mapping.
	waitForTraffic(prog, (tasks-1)*phaseLen)
	if err := rec.SetCurrent(mod.Assignment(), mod.Matrix()); err != nil {
		log.Fatal(err)
	}
	rep1, err := rec.Epoch()
	if err != nil {
		log.Fatal(err)
	}
	reports <- fmt.Sprintf("epoch 1 (pipeline running): drift %.2f, remapped=%v — observed traffic matches the declared graph", rep1.Drift, rep1.Adopted)
	staticAsgn := rep1.Assignment

	// Phase 2: the pattern shifts under the static mapping.
	close(phase2)
	<-done

	// Epoch 2: the observed window now holds the clustered exchange.
	rep2, err := rec.Epoch()
	if err != nil {
		log.Fatal(err)
	}
	reports <- fmt.Sprintf("epoch 2 (after the shift): drift %.2f, remapped=%v (modeled gain %.4fs vs migration cost %.4fs)",
		rep2.Drift, rep2.Adopted, rep2.GainSeconds, rep2.CostSeconds)
	close(reports)

	fmt.Println("=== closed-loop placement on a shifting program ===")
	fmt.Println()
	fmt.Println("declared matrix (the schedule barrier's view):")
	fmt.Print(mod.Matrix().RenderGrayScale())
	fmt.Println()
	fmt.Println("observed matrix (what actually flowed):")
	fmt.Print(prog.ObservedMatrix().RenderGrayScale())
	fmt.Println()
	for line := range reports {
		fmt.Println(line)
	}
	if !rep2.Adopted {
		log.Fatal("the loop failed to re-place after the shift")
	}

	// Quantify the recovery under the shifted pattern.
	clusterComm := prog.ObservedMatrix() // dominated by phase 2 volume
	w := &perfsim.Workload{
		Name:       "dynamic-shift",
		Threads:    make([]perfsim.Thread, tasks),
		Comm:       clusterComm,
		Iterations: 200,
	}
	for i := range w.Threads {
		w.Threads[i] = perfsim.Thread{ComputeCycles: 1e5, WorkingSet: 1 << 20, MemoryTraffic: 1 << 14}
	}
	staticSec := modelSeconds(top, staticAsgn, w)
	adaptiveSec := modelSeconds(top, rep2.Assignment, w)
	fmt.Println()
	fmt.Printf("modeled seconds under the shifted pattern (200 iterations):\n")
	fmt.Printf("  static schedule-barrier mapping: %.4f\n", staticSec)
	fmt.Printf("  re-placed mapping:               %.4f  (%.2fx)\n", adaptiveSec, staticSec/adaptiveSec)

	st := rec.Stats()
	fmt.Printf("\nloop counters: %d epochs, %d drift alarms, %d remaps, %d rejected\n",
		st.Epochs, st.DriftEpochs, st.Remaps, st.Rejected)
	fmt.Println("\nthe bindings followed the traffic: same program, no re-declaration, no restart")
}

// waitForTraffic blocks until the program's counters have seen at
// least ops transfer operations.
func waitForTraffic(prog *orwl.Program, ops int) {
	for {
		if _, o := prog.Traffic().Totals(); o >= uint64(ops) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}
