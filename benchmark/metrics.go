package main

import "fmt"

// The metric and workload tables. BENCHMARK.json at the repository root
// is checked against them by a test, so the program and the contract
// cannot drift apart.

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"warm-ring160", "one 160-task ring placed repeatedly: every call is a mapping-cache hit sent as an 8-byte fingerprint, so orwlnet transport and the placement hit path do the work and treematch none"},
	{"cold-clustered", "every request is a never-seen clustered matrix: it misses both caches, ships a body and runs TreeMatch, so comm, treematch and the body codec dominate and transport is a small share"},
	{"fleet-shift-160", "dense fleet loop, 2 peers x 80 tasks on smp20e7, shift and steady cycles alternating: a shift is a TreeMatch miss plus two perfsim models and moves nearly every task; report and merge are cheap"},
	{"fleet-partial-2k", "sparse partitioned fleet loop, 2 peers x 1024 tasks on fleet1k, partition-local shifts: window extraction, report encode, O(nnz) merge, partition drift and remap, delta push, O(changed) re-bind"},
}

// metricDef is one metric of the contract. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none. Moves
// documents a per-layer metric, whose name starts with the package it
// measures: the end-to-end metric @ workload it should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// End-to-end metrics: what a user of the daemon sees. Every workload
// reports every one of them, so each is defined for both kinds of
// workload: an operation is a placement call on the place workloads and
// a fleet cycle on the fleet workloads; the latency is the placement
// call's, or that of an adopted shift cycle from the first peer's Report
// call to the last peer's ApplyRemap returning with the adopted epoch.
// The p90 of that latency is printed but carries no bound: between ten
// runs on the builder's box its quartiles lay up to 0.21 of the median
// apart, too close to the largest bound the contract allows.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.05},
	{Name: "map_cost_ratio", Unit: "ratio", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// Per-layer metrics, from the traced pass. A metric a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "comm.fingerprint_us", Unit: "us", Better: "lower", Moves: "latency_p50_us @ cold-clustered"},
	{Name: "comm.window_nnz", Unit: "count", Better: "lower", Moves: "explains orwlplace.steady_p50_us @ fleet-partial-2k"},
	{Name: "treematch.map_us", Unit: "us", Better: "lower", Moves: "latency_p50_us, ops_per_s @ cold-clustered; latency_p50_us @ fleet-shift-160; nothing @ warm-ring160"},
	{Name: "treematch.map_affinity_ms", Unit: "ms", Better: "lower", Moves: "setup_s @ fleet-partial-2k"},
	{Name: "treematch.remap_partition_us", Unit: "us", Better: "lower", Moves: "latency_p50_us @ fleet-partial-2k"},
	{Name: "treematch.partitions", Unit: "count", Better: "higher", Moves: "shape check"},
	{Name: "placement.compute_hit_us", Unit: "us", Better: "lower", Moves: "latency_p50_us, ops_per_s @ warm-ring160"},
	{Name: "placement.compute_miss_us", Unit: "us", Better: "lower", Moves: "latency_p50_us, ops_per_s @ cold-clustered"},
	{Name: "placement.place_local_us", Unit: "us", Better: "lower", Moves: "latency_p50_us @ both place workloads"},
	{Name: "placement.cache_hit_share", Unit: "share", Better: "higher", Moves: "validity: 1.0 @ warm-ring160, 0.0 @ cold-clustered"},
	{Name: "placement.drift_us", Unit: "us", Better: "lower", Moves: "orwlplace.steady_p50_us, ops_per_s @ both fleet workloads"},
	{Name: "placement.bind_us", Unit: "us", Better: "lower", Moves: "latency_p50_us @ both fleet workloads"},
	{Name: "placement.adopted", Unit: "count", Better: "higher", Moves: "sample count behind latency_p50_us @ fleet workloads"},
	{Name: "placement.rejected", Unit: "count", Better: "lower", Moves: "sample count behind latency_p50_us @ fleet workloads"},
	{Name: "placement.held", Unit: "count", Better: "lower", Moves: "sample count behind latency_p50_us @ fleet workloads"},
	{Name: "perfsim.simulate_us", Unit: "us", Better: "lower", Moves: "latency_p50_us @ fleet-shift-160"},
	{Name: "orwl.record_ns", Unit: "ns", Better: "lower", Moves: "ops_per_s @ fleet workloads (application-overhead guard)"},
	{Name: "orwl.window_us", Unit: "us", Better: "lower", Moves: "orwlplace.steady_p50_us, latency_p50_us @ fleet-partial-2k"},
	{Name: "orwlnet.place_rtt_us", Unit: "us", Better: "lower", Moves: "latency_p50_us @ warm-ring160"},
	{Name: "orwlnet.transport_us", Unit: "us", Better: "lower", Moves: "latency_p50_us @ warm-ring160"},
	{Name: "orwlnet.place_p99_us", Unit: "us", Better: "lower", Moves: "report-only: too noisy to gate"},
	{Name: "orwlnet.req_bytes_per_op", Unit: "B", Better: "lower", Moves: "ops_per_s @ cold-clustered"},
	{Name: "orwlnet.resp_bytes_per_op", Unit: "B", Better: "lower", Moves: "ops_per_s @ cold-clustered"},
	{Name: "orwlnet.report_rtt_us", Unit: "us", Better: "lower", Moves: "orwlplace.steady_p50_us @ fleet-partial-2k"},
	{Name: "orwlnet.report_bytes_per_window", Unit: "B", Better: "lower", Moves: "orwlplace.steady_p50_us @ fleet-partial-2k"},
	{Name: "orwlnet.push_wait_us", Unit: "us", Better: "lower", Moves: "latency_p50_us @ fleet workloads"},
	{Name: "orwlnet.push_bytes_per_remap", Unit: "B", Better: "lower", Moves: "latency_p50_us @ fleet-partial-2k"},
	{Name: "orwlnet.delta_push_share", Unit: "share", Better: "higher", Moves: "latency_p50_us @ fleet-partial-2k (about 1.0 there, lower @ fleet-shift-160)"},
	{Name: "ctrlplane.merge_us", Unit: "us", Better: "lower", Moves: "orwlplace.steady_p50_us @ fleet-partial-2k"},
	{Name: "ctrlplane.window_us", Unit: "us", Better: "lower", Moves: "orwlplace.steady_p50_us @ fleet workloads"},
	{Name: "ctrlplane.epoch_steady_us", Unit: "us", Better: "lower", Moves: "orwlplace.steady_p50_us, ops_per_s @ fleet workloads"},
	{Name: "ctrlplane.epoch_shift_us", Unit: "us", Better: "lower", Moves: "latency_p50_us @ fleet workloads"},
	{Name: "ctrlplane.throttled", Unit: "count", Better: "lower", Moves: "failed operations (must be 0)"},
	{Name: "ctrlplane.lease_conflicts", Unit: "count", Better: "lower", Moves: "failed operations (must be 0)"},
	{Name: "orwlplace.report_us", Unit: "us", Better: "lower", Moves: "orwlplace.steady_p50_us, latency_p50_us @ fleet workloads"},
	{Name: "orwlplace.apply_us", Unit: "us", Better: "lower", Moves: "latency_p50_us @ fleet workloads"},
	{Name: "orwlplace.steady_p50_us", Unit: "us", Better: "lower", Moves: "ops_per_s @ fleet workloads: the cost of an interval in which nothing changes"},
	{Name: "orwlplace.tasks_rebound_per_remap", Unit: "count", Better: "lower", Moves: "latency_p50_us @ fleet-partial-2k (about the moved tasks) vs fleet-shift-160 (about the lease size)"},
	{Name: "orwlplace.delta_remap_share", Unit: "share", Better: "higher", Moves: "latency_p50_us @ fleet-partial-2k"},
	{Name: "orwlplace.dropped_windows", Unit: "count", Better: "lower", Moves: "failed operations (must be 0)"},
	{Name: "orwlplace.releases", Unit: "count", Better: "lower", Moves: "failed operations (must be 0)"},
	{Name: "trace.unattributed_share", Unit: "share", Better: "lower", Moves: "how much of an operation the child spans do not explain"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Moves: "(traced - untraced) / untraced median latency"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the contract's result object.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// newResult shapes measured values into the contract's object, checking
// that exactly the metrics of defs were measured.
func newResult(defs []metricDef, got map[string]float64, ops opCount, correct bool) (*result, error) {
	r := &result{Correct: correct, Attempted: ops.attempted, Failed: ops.failed, Metrics: make(map[string]value, len(defs))}
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = value{Value: v, Unit: d.Unit}
	}
	if len(got) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, the contract names %d", len(got), len(defs))
	}
	return r, nil
}
