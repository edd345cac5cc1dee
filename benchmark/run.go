package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// One run: one workload, one seed, one pass (timed or traced).

const (
	// setupRepeats is how many times a timed run sets the workload up;
	// setup_s is the median, and the last world is the one measured.
	setupRepeats = 21
	// verifySamples is how many placements a timed place run compares
	// with the twin service after its timed interval.
	verifySamples = 256
	// warmupPairs is how many shift+steady pairs a traced fleet run
	// drives before the passes it compares.
	warmupPairs = 4
)

// tracedPairs is how many shift+steady pairs each pass of a traced fleet
// run drives. A count, not a duration, so the adopted/rejected counters
// repeat exactly for a seed.
var tracedPairs = map[string]int{"fleet-shift-160": 1024, "fleet-partial-2k": 48}

// overheadSlices is how many slices each of the untraced and the traced
// pass of a traced run is cut into; the slices alternate.
const overheadSlices = 8

// quickPairs replaces tracedPairs in runs too short to be comparable; it
// still gives the 64 cycles a traced pass needs.
const quickPairs = 32

// comparableSeconds is the shortest timed interval whose numbers may be
// compared with another run's.
const comparableSeconds = 10

// report is one run with everything the human table and result.json
// show beside the contract's result object.
type report struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Seconds    int                  `json:"seconds"`
	Traced     bool                 `json:"traced"`
	Comparable bool                 `json:"comparable"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	GoVersion  string               `json:"go_version"`
	Link       string               `json:"link"`
	Load       string               `json:"load"`
	Correct    bool                 `json:"outputs_correct"`
	Result     *result              `json:"result"`
	Samples    map[string]int       `json:"sample_counts"`
	Series     map[string][]float64 `json:"series"`
	// The latency pool of the whole timed interval, report-only: its
	// median, and the highest percentile that still has ten samples
	// beyond it.
	PooledP50US float64 `json:"pooled_p50_us"`
	// P90US is the median over the segments of the per-segment p90
	// latency: report-only, too noisy on a shared box to carry a bound.
	P90US float64 `json:"latency_p90_us,omitempty"`
	// SteadyP50US is the median latency of the fleet cycles that adopted
	// nothing (report-only in a timed run).
	SteadyP50US float64 `json:"steady_p50_us,omitempty"`
	TailRank    float64 `json:"tail_rank"`
	TailUS      float64 `json:"tail_us"`
}

func newReport(name string, seed int64, seconds int, traced bool) *report {
	return &report{
		Workload: name, Seed: seed, Seconds: seconds, Traced: traced,
		Comparable: seconds >= comparableSeconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Link:    "loopback TCP inside one process, not a real link",
		Load:    fmt.Sprintf("closed loop, %d callers/peers, one connection each", callers),
		Samples: map[string]int{}, Series: map[string][]float64{},
	}
}

// finish derives the contract's result from the measured values.
func (r *report) finish(defs []metricDef, got map[string]float64, ops opCount) error {
	r.Correct = ops.failed == 0 && ops.attempted > 0
	res, err := newResult(defs, got, ops, r.Correct)
	r.Result = res
	return err
}

// closer is a set-up workload that can be torn down.
type closer interface{ close() }

// timedSetup sets a workload up n times, tearing down all but the last,
// and returns the last world with every set-up time in seconds.
func timedSetup[W closer](n int, setup func() (W, error)) (W, []float64, error) {
	var w W
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			w.close()
		}
		start := time.Now()
		var err error
		if w, err = setup(); err != nil {
			return w, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return w, times, nil
}

// warmup is the untimed lead-in of a run of the given length.
func warmup(seconds int) time.Duration {
	if seconds < comparableSeconds {
		return 200 * time.Millisecond
	}
	return 1500 * time.Millisecond
}

// runOnce runs one workload once. outDir receives the trace file of a
// traced run.
func runOnce(name string, seed int64, seconds int, traced bool, outDir string) (*report, error) {
	if seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	rep := newReport(name, seed, seconds, traced)
	var err error
	_, fleet := fleetSpecs[name]
	switch {
	case name == "warm-ring160" || name == "cold-clustered":
		if traced {
			err = tracedPlace(rep, outDir)
		} else {
			err = timedPlace(rep)
		}
	case fleet:
		if traced {
			err = tracedFleet(rep, outDir)
		} else {
			err = timedFleet(rep)
		}
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return rep, nil
}

// timed is what a timed pass measured, whatever the workload.
type timed struct {
	setups     []float64 // seconds per set-up
	ratio      float64   // map_cost_ratio of the quality pass
	segs       []segment
	pool       *samples // latencies of the primary operation, whole interval
	allocBytes uint64
	driven     int // operations of the timed interval
}

// timedMetrics derives the end-to-end metrics. Rates and latencies are the
// median over the segments of the per-segment figure; the pooled
// percentiles go beside them, report-only — except in a run too short
// for any segment to hold enough samples, which falls back on them.
func (r *report) timedMetrics(t timed) map[string]float64 {
	sorted := sortedCopy(t.pool.us)
	r.Samples["latency"] = len(sorted)
	r.PooledP50US = percentile(sorted, 50)
	r.TailRank = tailRank(len(sorted))
	r.TailUS = percentile(sorted, r.TailRank)
	r.Series["setup_s"] = t.setups
	r.Series["ops_per_s"] = segmentRates(t.segs)
	r.Series["latency_p50_us"] = segmentPercentiles(t.segs, 50)
	r.Series["latency_p90_us"] = segmentPercentiles(t.segs, 90)
	got := map[string]float64{
		"setup_s":         median(t.setups),
		"ops_per_s":       median(r.Series["ops_per_s"]),
		"latency_p50_us":  median(r.Series["latency_p50_us"]),
		"alloc_kb_per_op": float64(t.allocBytes) / 1024 / float64(t.driven),
		"map_cost_ratio":  t.ratio,
	}
	r.P90US = median(r.Series["latency_p90_us"])
	if len(r.Series["latency_p50_us"]) == 0 {
		got["latency_p50_us"] = r.PooledP50US
		r.P90US = percentile(sorted, 90)
	}
	return got
}

func timedPlace(r *report) error {
	w, setups, err := timedSetup(setupRepeats, func() (*placeWorld, error) { return setupPlace(r.Workload, r.Seed) })
	if err != nil {
		return err
	}
	defer w.close()
	ratio, err := w.quality()
	if err != nil {
		return err
	}
	w.drive(warmup(r.Seconds), nil)
	run := w.drive(time.Duration(r.Seconds)*time.Second, nil)
	if len(run.calls.us) == 0 {
		return fmt.Errorf("no placement completed")
	}
	ops := run.calls.opCount
	ops.add(w.sample(nil, verifySamples))
	got := r.timedMetrics(timed{setups, ratio, run.segs, &run.calls, run.allocBytes, run.calls.attempted})
	return r.finish(endToEnd, got, ops)
}

func timedFleet(r *report) error {
	w, setups, err := timedSetup(setupRepeats, func() (*fleetWorld, error) { return setupFleet(r.Workload, r.Seed) })
	if err != nil {
		return err
	}
	defer w.close()
	ratio, err := w.quality()
	if err != nil {
		return err
	}
	w.drive(warmup(r.Seconds), 0, nil)
	run := w.drive(time.Duration(r.Seconds)*time.Second, 0, nil)
	if len(run.rebind.us) == 0 {
		return fmt.Errorf("no shift was adopted")
	}
	ops := run.cycles()
	got := r.timedMetrics(timed{setups, ratio, run.segs, &run.rebind, run.allocBytes, ops.attempted})
	r.Samples["steady"] = len(run.steady.us)
	r.Samples["shifts"] = run.shifts
	r.Samples["adopted"] = run.adopted
	r.Samples["rejected"] = run.rejected
	r.SteadyP50US = median(run.steady.us)
	return r.finish(endToEnd, got, ops)
}

// zeroLayers starts a traced run's metrics: a metric the workload does
// not exercise reads 0.
func zeroLayers() map[string]float64 {
	got := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		got[d.Name] = 0
	}
	return got
}

// overheadShare is (traced - untraced) / untraced on the median latency.
func overheadShare(untraced, traced []float64) float64 {
	base := median(untraced)
	if base == 0 {
		return 0
	}
	return (median(traced) - base) / base
}

func tracedPlace(r *report, outDir string) error {
	w, err := setupPlace(r.Workload, r.Seed)
	if err != nil {
		return err
	}
	defer w.close()
	t0 := time.Now()
	tracers := make([]*tracer, callers)
	for c := range tracers {
		tracers[c] = newTracer(r.Workload, c, t0)
	}
	probe := newTracer(r.Workload, callers, t0)

	// The two passes alternate in slices, so whatever drifts over the
	// run (heap size, cache warmth) drifts under both alike.
	slice := time.Duration(r.Seconds) * time.Second / (2 * overheadSlices)
	w.drive(warmup(r.Seconds), nil)
	untraced, traced := &placeRun{}, &placeRun{}
	for i := 0; i < overheadSlices; i++ {
		untraced.merge(w.drive(slice, nil))
		traced.merge(w.drive(slice, tracers))
	}
	ops := untraced.calls.opCount
	ops.add(traced.calls.opCount)
	ops.add(w.sample(probe, verifySamples))
	if len(traced.calls.us) == 0 || len(untraced.calls.us) == 0 {
		return fmt.Errorf("no placement completed")
	}

	got := zeroLayers()
	n := float64(traced.calls.attempted)
	got["comm.fingerprint_us"] = probe.p50("comm.fingerprint")
	got["treematch.map_us"] = probe.p50("treematch.map")
	got["placement.compute_hit_us"] = probe.p50("placement.compute_hit")
	got["placement.compute_miss_us"] = probe.p50("placement.compute_miss")
	got["placement.place_local_us"] = probe.p50("placement.place_local")
	got["placement.cache_hit_share"] = float64(traced.hits) / n
	got["orwlnet.place_rtt_us"] = probe.p50("orwlnet.place_rtt")
	got["orwlnet.transport_us"] = got["orwlnet.place_rtt_us"] - got["placement.place_local_us"]
	got["orwlnet.place_p99_us"] = percentile(sortedCopy(untraced.calls.us), 99)
	got["orwlnet.req_bytes_per_op"] = float64(traced.reqBytes) / n
	got["orwlnet.resp_bytes_per_op"] = float64(traced.respBytes) / n
	var spans []span
	for _, tr := range tracers {
		spans = append(spans, tr.spans...)
	}
	got["trace.unattributed_share"] = unattributedShare(spans, "place")
	got["trace.overhead_share"] = overheadShare(untraced.calls.us, traced.calls.us)

	r.Samples["traced_calls"] = traced.calls.attempted
	r.Samples["untraced_calls"] = untraced.calls.attempted
	r.Samples["probed_calls"] = verifySamples
	if err := writeTrace(filepath.Join(outDir, "trace-"+r.Workload+".json"), append(tracers, probe)...); err != nil {
		return err
	}
	return r.finish(perLayer, got, ops)
}

func tracedFleet(r *report, outDir string) error {
	w, err := setupFleet(r.Workload, r.Seed)
	if err != nil {
		return err
	}
	defer w.close()
	tr := newTracer(r.Workload, 0, time.Now())
	if err := w.attachTwin(tr); err != nil {
		return err
	}
	pairs := tracedPairs[r.Workload]
	if !r.Comparable {
		pairs = quickPairs
	}
	w.drive(0, warmupPairs, nil)
	before := w.stats()
	untraced, traced := &fleetRun{}, &fleetRun{}
	for i := 0; i < overheadSlices; i++ {
		untraced.merge(w.drive(0, pairs/overheadSlices, nil))
		traced.merge(w.drive(0, pairs/overheadSlices, tr))
	}
	after := w.stats()
	ops := untraced.cycles()
	ops.add(traced.cycles())
	if len(traced.rebind.us) == 0 || len(untraced.rebind.us) == 0 {
		return fmt.Errorf("no shift was adopted")
	}

	got := zeroLayers()
	t := w.twin
	got["comm.window_nnz"] = median(tr.values("comm.window_nnz"))
	got["treematch.map_us"] = tr.p50("treematch.map")
	got["treematch.map_affinity_ms"] = tr.p50("treematch.map_affinity") / 1e3
	got["treematch.remap_partition_us"] = tr.p50("treematch.remap_partition")
	if parts := t.cur.Partitions; parts != nil {
		got["treematch.partitions"] = float64(len(parts.Parts))
	}
	got["placement.drift_us"] = tr.p50("placement.drift")
	got["placement.bind_us"] = tr.p50("placement.bind")
	// Outcomes of every shift of both passes: exact for a seed.
	got["placement.adopted"] = float64(untraced.adopted + traced.adopted)
	got["placement.rejected"] = float64(untraced.rejected + traced.rejected)
	got["placement.held"] = float64(untraced.held + traced.held)
	got["perfsim.simulate_us"] = tr.p50("perfsim.simulate")
	var recordUS float64
	for _, us := range tr.values("orwl.record") {
		recordUS += us
	}
	got["orwl.record_ns"] = recordUS * 1e3 / float64(len(tr.values("orwl.record"))*w.peers[0].cl.pairs())
	got["orwl.window_us"] = tr.p50("orwl.window")
	got["orwlnet.report_rtt_us"] = tr.p50("orwlnet.report_rtt")
	got["orwlnet.report_bytes_per_window"] = median(t.reportBytes)
	got["orwlnet.push_wait_us"] = tr.p50("orwlnet.push_wait")
	// Both passes between the two snapshots pushed and applied remaps.
	pushes := float64(after.deltaPushes + after.fullPushes - before.deltaPushes - before.fullPushes)
	reports := float64(after.reports - before.reports)
	if pushes > 0 {
		// What the peers received, less the acks of their reports.
		got["orwlnet.push_bytes_per_remap"] = (float64(after.bytesIn-before.bytesIn) - reports*t.ackBytes) / pushes
		got["orwlnet.delta_push_share"] = float64(after.deltaPushes-before.deltaPushes) / pushes
	}
	got["ctrlplane.merge_us"] = tr.p50("ctrlplane.merge")
	got["ctrlplane.window_us"] = tr.p50("ctrlplane.window")
	got["ctrlplane.epoch_steady_us"] = tr.p50("ctrlplane.epoch_steady")
	got["ctrlplane.epoch_shift_us"] = tr.p50("ctrlplane.epoch_shift")
	got["ctrlplane.throttled"] = float64(after.throttled)
	got["ctrlplane.lease_conflicts"] = float64(after.leaseConflicts)
	got["orwlplace.report_us"] = tr.p50("orwlplace.report")
	got["orwlplace.apply_us"] = tr.p50("orwlplace.apply")
	got["orwlplace.steady_p50_us"] = median(untraced.steady.us)
	if remaps := float64(after.remaps - before.remaps); remaps > 0 {
		got["orwlplace.tasks_rebound_per_remap"] = float64(after.tasksRebound-before.tasksRebound) / remaps
		got["orwlplace.delta_remap_share"] = float64(after.deltaRemaps-before.deltaRemaps) / remaps
	}
	got["orwlplace.dropped_windows"] = float64(after.droppedWindows)
	got["orwlplace.releases"] = float64(after.releases)
	got["trace.unattributed_share"] = unattributedShare(tr.spans, "cycle")
	got["trace.overhead_share"] = overheadShare(untraced.rebind.us, traced.rebind.us)

	r.Samples["traced_cycles"] = traced.cycles().attempted
	r.Samples["untraced_cycles"] = untraced.cycles().attempted
	r.Samples["shifts"] = untraced.shifts + traced.shifts
	if err := writeTrace(filepath.Join(outDir, "trace-"+r.Workload+".json"), tr); err != nil {
		return err
	}
	return r.finish(perLayer, got, ops)
}
