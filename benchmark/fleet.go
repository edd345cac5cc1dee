package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"orwlplace"
	"orwlplace/internal/comm"
	"orwlplace/internal/orwl"
	"orwlplace/internal/placement"
	"orwlplace/internal/treematch"
)

// The fleet workloads: fleet-shift-160 and fleet-partial-2k. Two peers
// lease disjoint task ranges of one machine and the benchmark drives the
// control loop step by step — record, Report, Controller.Epoch, receive
// the push, ApplyRemap — from one goroutine, so no ticker is ever inside
// a measured interval. Cycles alternate shift (a fresh seeded
// re-clustering: a novel window) and steady (the same pattern again:
// drift about 0, nothing adopted).

const peers = 2

// pushTimeout bounds the wait for an adopted remap's push; a cycle that
// exceeds it failed.
const pushTimeout = 5 * time.Second

// fleetSpec sizes one fleet workload.
type fleetSpec struct {
	name    string
	machine string
	tasks   int // per peer
	// head is how many leading tasks of each peer a shift re-clusters.
	// fleet-partial-2k keeps it inside one weak-cut partition per peer:
	// a full-span shift there is rejected, because a per-partition remap
	// cannot fix cross-partition drift.
	head int
	// segment is the length of one segment of the timed interval: long
	// enough for some thirty adopted cycles.
	segment time.Duration
}

var fleetSpecs = map[string]fleetSpec{
	"fleet-shift-160":  {name: "fleet-shift-160", machine: "smp20e7", tasks: 80, head: 80, segment: 250 * time.Millisecond},
	"fleet-partial-2k": {name: "fleet-partial-2k", machine: "fleet1k", tasks: 1024, head: 96, segment: 2 * time.Second},
}

// fleetPeer is one member process of the fleet, in-process.
type fleetPeer struct {
	rs     *orwlplace.RemotePlacement
	prog   *orwl.Program
	fa     *orwlplace.FleetAdaptive
	remaps <-chan orwlplace.Remap
	base   int
	cl     *clusters  // the traffic pattern the peer's tasks currently follow
	rng    *rand.Rand // this peer's shift permutations
}

// fleetWorld is a set-up fleet workload: daemon up, peers leased and
// subscribed, first epoch adopted and applied.
type fleetWorld struct {
	spec   fleetSpec
	d      *daemon
	peers  [peers]*fleetPeer
	cancel context.CancelFunc // ends the remap subscriptions
	twin   *fleetTwin         // traced pass only
}

func setupFleet(name string, seed int64) (*fleetWorld, error) {
	spec, ok := fleetSpecs[name]
	if !ok {
		return nil, fmt.Errorf("unknown fleet workload %q", name)
	}
	d, err := startDaemon([]string{spec.machine}, true)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &fleetWorld{spec: spec, d: d, cancel: cancel}
	for i := range w.peers {
		p := &fleetPeer{base: i * spec.tasks, rng: newRNG(seed, streamShift+i)}
		w.peers[i] = p
		if p.rs, err = orwlplace.DialPlacement(ctx, d.addr); err != nil {
			break
		}
		if p.prog, err = orwl.NewProgram(spec.tasks); err != nil {
			break
		}
		p.fa, err = orwlplace.NewFleetAdaptive(ctx, p.rs, p.prog, orwlplace.FleetAdaptiveConfig{
			Machine: spec.machine, Peer: fmt.Sprintf("peer-%d", i), TaskBase: p.base,
		})
		if err != nil {
			break
		}
		// Subscribed before the first Report, so the ack is epoch 0 and
		// every adoption arrives as a pushed event.
		if p.remaps, err = p.rs.WatchRemaps(ctx, spec.machine); err != nil {
			break
		}
		p.cl = identityClusters(spec.tasks)
		p.cl.reshuffleHead(p.rng, spec.head)
	}
	if err == nil {
		if c := w.cycle(nil, false); c.failed || !c.adopted {
			err = fmt.Errorf("priming epoch was not adopted and applied (failed=%v)", c.failed)
		}
	}
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *fleetWorld) close() {
	w.cancel()
	if w.twin != nil {
		w.twin.close()
	}
	for _, p := range w.peers {
		if p != nil && p.rs != nil {
			p.rs.Close()
		}
	}
	w.d.stop()
}

// cycleResult is one fleet cycle as measured.
type cycleResult struct {
	failed  bool
	adopted bool
	// latencyUS runs from the first peer's Report call to the last
	// peer's ApplyRemap returning with the adopted epoch — or, when
	// nothing was adopted, to Controller.Epoch returning.
	latencyUS float64
	// busy is the whole cycle: recording the window, then the above.
	busy time.Duration
	rep  *placement.EpochReport
}

// cycle drives one step of the loop. A shift cycle first re-clusters
// each peer's head tasks by a fresh seeded permutation.
func (w *fleetWorld) cycle(tr *tracer, shift bool) cycleResult {
	ctx := context.Background()
	if shift {
		for _, p := range w.peers {
			p.cl.reshuffleHead(p.rng, w.spec.head)
		}
	}
	var res cycleResult
	tr.newTrace()
	root := tr.begin(openSpan{}, "benchmark", "cycle")
	begin := time.Now()
	for _, p := range w.peers {
		tr.timed(root, "orwl", "orwl.record", func() { p.cl.record(p.prog.Traffic()) })
	}
	reportStart := time.Now()
	for _, p := range w.peers {
		tr.timed(root, "orwlplace", "orwlplace.report", func() {
			if err := p.fa.Report(ctx); err != nil {
				res.failed = true
			}
		})
	}
	epochName := "ctrlplane.epoch_steady"
	if shift {
		epochName = "ctrlplane.epoch_shift"
	}
	tr.timed(root, "ctrlplane", epochName, func() {
		rep, err := w.d.ctrl.Epoch(w.spec.machine)
		if err != nil || rep == nil {
			res.failed = true
			return
		}
		res.rep = rep
		res.adopted = rep.Adopted
	})
	if res.adopted {
		epoch := w.d.ctrl.Latest(w.spec.machine).Epoch
		for _, p := range w.peers {
			var ev orwlplace.Remap
			var ok bool
			tr.timed(root, "orwlnet", "orwlnet.push_wait", func() { ev, ok = p.await(epoch, pushTimeout) })
			if !ok {
				res.failed = true
				continue
			}
			tr.timed(root, "orwlplace", "orwlplace.apply", func() {
				if applied, err := p.fa.ApplyRemap(ev); err != nil || !applied {
					res.failed = true
				}
			})
		}
	}
	end := time.Now()
	tr.end(root)
	res.latencyUS = float64(end.Sub(reportStart).Nanoseconds()) / 1e3
	res.busy = end.Sub(begin)
	if !w.converged() {
		res.failed = true
	}
	if w.twin != nil && !w.twin.step(tr, w, shift, res) {
		res.failed = true
	}
	return res
}

// await reads the peer's remap channel until the event of the given
// epoch; false when the subscription ended or the push did not arrive
// within the limit.
func (p *fleetPeer) await(epoch uint64, limit time.Duration) (orwlplace.Remap, bool) {
	timeout := time.NewTimer(limit)
	defer timeout.Stop()
	for {
		select {
		case ev, ok := <-p.remaps:
			if !ok {
				return orwlplace.Remap{}, false
			}
			if ev.Epoch == epoch {
				return ev, true
			}
		case <-timeout.C:
			return orwlplace.Remap{}, false
		}
	}
}

// converged is the per-cycle output check: every peer holds the same
// applied epoch as Controller.Latest, and each peer's binding equals its
// slice of the latest assignment.
func (w *fleetWorld) converged() bool {
	latest := w.d.ctrl.Latest(w.spec.machine)
	if latest == nil || latest.Assignment == nil {
		return false
	}
	for _, p := range w.peers {
		if p.fa.AppliedEpoch() != latest.Epoch {
			return false
		}
		if !bindingIs(p.prog.Binding(), latest.Assignment.ComputePU[p.base:p.base+w.spec.tasks]) {
			return false
		}
	}
	return true
}

// bindingIs reports whether a program binding (task -> PU) is exactly
// the expected slice.
func bindingIs(binding map[int]int, want []int) bool {
	if len(binding) != len(want) {
		return false
	}
	for task, pu := range want {
		if got, ok := binding[task]; !ok || got != pu {
			return false
		}
	}
	return true
}

// fleetRun is what one drive of a fleet workload measured.
type fleetRun struct {
	rebind   samples   // adopted cycles: shift -> all peers re-bound
	steady   samples   // cycles that adopted nothing
	segs     []segment // cycles, driving time and rebind latencies per segment
	shifts   int
	adopted  int
	rejected int
	held     int

	allocBytes uint64
}

// merge adds another drive's samples, segments and counters.
func (r *fleetRun) merge(o *fleetRun) {
	r.segs = append(r.segs, o.segs...)
	r.rebind.merge(&o.rebind)
	r.steady.merge(&o.steady)
	r.shifts += o.shifts
	r.adopted += o.adopted
	r.rejected += o.rejected
	r.held += o.held
	r.allocBytes += o.allocBytes
}

func (r *fleetRun) cycles() opCount {
	c := r.rebind.opCount
	c.add(r.steady.opCount)
	return c
}

func (r *fleetRun) note(shift bool, c cycleResult) {
	// Outcomes are counted per shift: the steady cycle after a rejected
	// shift sees the same window and rejects it again.
	if shift {
		r.shifts++
	}
	if shift && c.rep != nil {
		switch {
		case c.rep.Adopted:
			r.adopted++
		case c.rep.Recomputed:
			r.rejected++
		case c.rep.Held:
			r.held++
		}
	}
	class := &r.steady
	if c.adopted {
		class = &r.rebind
	}
	if c.failed {
		class.fail()
		return
	}
	class.ok(c.latencyUS)
}

// drive alternates shift and steady cycles. With pairs > 0 it runs
// exactly that many shift+steady pairs as one segment (the traced pass:
// counts repeat exactly for a seed); otherwise it runs for d, cut into
// segments of the workload's segment length.
func (w *fleetWorld) drive(d time.Duration, pairs int, tr *tracer) *fleetRun {
	segs := 1
	if pairs == 0 {
		segs = max(int(d/w.spec.segment), 1)
	}
	segLen := d / time.Duration(segs)
	run := &fleetRun{segs: make([]segment, segs)}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for n := 0; ; n++ {
		if pairs > 0 {
			if n == pairs {
				break
			}
		} else if time.Since(t0) >= d {
			break
		}
		for _, shift := range []bool{true, false} {
			c := w.cycle(tr, shift)
			run.note(shift, c)
			seg := &run.segs[0]
			if pairs == 0 {
				// The pair in flight at the deadline lands in the last
				// segment.
				seg = &run.segs[min(int(time.Since(t0)/segLen), segs-1)]
			}
			seg.ops++
			seg.busy += c.busy.Seconds()
			if c.adopted && !c.failed {
				seg.us = append(seg.us, c.latencyUS)
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	run.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return run
}

// globalWindow is the merged window the daemon sees for the peers'
// current patterns, generated directly, in the representation the
// daemon's collector holds it in (dense up to comm.DenseOrderThreshold).
func (w *fleetWorld) globalWindow() comm.Affinity {
	g := comm.NewAffinity(peers * w.spec.tasks)
	for _, p := range w.peers {
		p.cl.addTo(g, p.base)
	}
	return g
}

// qualityShifts is how many shift cycles the quality pass scores.
const qualityShifts = 8

// quality is map_cost_ratio for a fleet workload: over the first
// qualityShifts shift cycles (untimed), the hop-weighted cost of the
// assignment in force after the cycle under that cycle's window, as a
// share of round-robin-pu's cost under the same window. A rejected shift
// keeps the old assignment in force and is scored as such.
func (w *fleetWorld) quality() (float64, error) {
	top, err := w.d.topology(w.spec.machine)
	if err != nil {
		return 0, err
	}
	n := peers * w.spec.tasks
	rrPU, err := treematch.Place(top, n, treematch.StrategyRoundRobinPU)
	if err != nil {
		return 0, err
	}
	var tm, rr float64
	for i := 0; i < qualityShifts; i++ {
		if c := w.cycle(nil, true); c.failed {
			return 0, fmt.Errorf("quality pass: shift cycle %d failed", i)
		}
		window := w.globalWindow().Dense()
		inForce, err := treematch.Cost(top, window, w.d.ctrl.Latest(w.spec.machine).Assignment.ComputePU)
		if err != nil {
			return 0, err
		}
		base, err := treematch.Cost(top, window, rrPU)
		if err != nil {
			return 0, err
		}
		tm += inForce
		rr += base
		if c := w.cycle(nil, false); c.failed {
			return 0, fmt.Errorf("quality pass: steady cycle %d failed", i)
		}
	}
	if rr == 0 {
		return 0, fmt.Errorf("quality pass: round-robin cost is 0")
	}
	return tm / rr, nil
}

// fleetCounters snapshots the counters the daemon and the peers keep,
// summed over the peers: the same instruments production reads.
type fleetCounters struct {
	deltaPushes, fullPushes   uint64 // ServiceStats.Fleet
	throttled, leaseConflicts uint64
	bytesIn                   uint64 // peers' WirePoolStats: acks and pushes received
	reports, remaps           uint64 // FleetAdaptiveStats
	deltaRemaps, tasksRebound uint64
	droppedWindows, releases  uint64
}

func (w *fleetWorld) stats() fleetCounters {
	var c fleetCounters
	if st, err := w.d.srv.ServiceStats(context.Background()); err == nil {
		c.deltaPushes, c.fullPushes = st.Fleet.DeltaPushes, st.Fleet.FullPushes
		c.throttled, c.leaseConflicts = st.Fleet.ReportsThrottled, st.Fleet.LeaseConflicts
	}
	for _, p := range w.peers {
		in, _ := p.rs.WirePoolStats()
		c.bytesIn += in
		st := p.fa.Stats()
		c.reports += st.Reports
		c.remaps += st.Remaps
		c.deltaRemaps += st.DeltaRemaps
		c.tasksRebound += st.TasksRebound
		c.droppedWindows += st.DroppedWindows
		c.releases += st.Releases
	}
	return c
}
