package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// quick is the shortest interval: enough to exercise every path and the
// output check, not comparable with anything.
const quick = 1

// The run must pass its output check on two seeds, in both passes, and
// report exactly the contract's metrics.
func TestEveryWorkloadPassesItsOutputCheckOnTwoSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	out := t.TempDir()
	for _, seed := range []int64{1, 7} {
		for _, name := range workloadNames() {
			timed, err := runOnce(name, seed, quick, false, out)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runOnce(name, seed, quick, true, out)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*report{timed, traced} {
				if !r.Correct || r.Result.Failed != 0 || r.Result.Attempted < 1 {
					t.Errorf("%s seed %d traced=%v: correct=%v attempted=%d failed=%d", name, seed, r.Traced, r.Correct, r.Result.Attempted, r.Result.Failed)
				}
				if r.Comparable {
					t.Errorf("%s: a %d s run is marked comparable", name, quick)
				}
			}
			if len(timed.Result.Metrics) != len(endToEnd) || len(traced.Result.Metrics) != len(perLayer) {
				t.Errorf("%s: %d end-to-end and %d per-layer metrics reported", name, len(timed.Result.Metrics), len(traced.Result.Metrics))
			}
			for _, d := range endToEnd {
				if v := timed.Result.Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, d.Name, v)
				}
			}
			checkLayers(t, name, traced)
			checkTraceFile(t, name, filepath.Join(out, "trace-"+name+".json"))
		}
	}
}

// checkLayers holds the traced pass to the facts each workload is built
// on.
func checkLayers(t *testing.T, name string, r *report) {
	t.Helper()
	m := func(metric string) float64 { return r.Result.Metrics[metric].Value }
	_, fleet := fleetSpecs[name]
	switch name {
	case "warm-ring160":
		if m("placement.cache_hit_share") != 1 || m("treematch.map_us") != 0 {
			t.Errorf("%s: hit share %g, treematch.map_us %g: want 1 and 0", name, m("placement.cache_hit_share"), m("treematch.map_us"))
		}
	case "cold-clustered":
		if m("placement.cache_hit_share") != 0 || !(m("treematch.map_us") > 0) {
			t.Errorf("%s: hit share %g, treematch.map_us %g: want 0 and > 0", name, m("placement.cache_hit_share"), m("treematch.map_us"))
		}
	case "fleet-partial-2k":
		if m("orwlnet.delta_push_share") < 0.9 || m("treematch.partitions") < 2 {
			t.Errorf("%s: delta push share %g over %g partitions", name, m("orwlnet.delta_push_share"), m("treematch.partitions"))
		}
		// A shift stays inside one partition per peer, and only that
		// partition is re-placed.
		if perPartition := float64(peers*fleetSpecs[name].tasks) / m("treematch.partitions"); m("orwlplace.tasks_rebound_per_remap") > perPartition {
			t.Errorf("%s: %g tasks re-bound per remap, more than the %g of one partition", name, m("orwlplace.tasks_rebound_per_remap"), perPartition)
		}
	}
	if fleet {
		if got, want := m("placement.adopted")+m("placement.rejected")+m("placement.held"), float64(r.Samples["shifts"]); got != want {
			t.Errorf("%s: adopted+rejected+held = %g, want the %g shifts", name, got, want)
		}
		if m("trace.unattributed_share") > 0.15 {
			t.Errorf("%s: %g of a cycle is not explained by its child spans", name, m("trace.unattributed_share"))
		}
		for _, zero := range []string{"ctrlplane.throttled", "ctrlplane.lease_conflicts", "orwlplace.dropped_windows", "orwlplace.releases"} {
			if m(zero) != 0 {
				t.Errorf("%s: %s = %g, want 0", name, zero, m(zero))
			}
		}
	}
}

// checkTraceFile reads a trace back: every span closed, every parent
// present in the same trace.
func checkTraceFile(t *testing.T, name, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	byID := map[int]span{}
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("%s: span id %d used twice", path, s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS || s.Workload != name || s.Layer == "" || s.Name == "" {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
		if s.Parent != 0 {
			if p, ok := byID[s.Parent]; !ok || p.Trace != s.Trace {
				t.Fatalf("%s: span %d's parent %d is missing from trace %d", path, s.ID, s.Parent, s.Trace)
			}
		}
	}
}

// Same seed, same decisions: the adopted/rejected sequence of the
// daemon (which the twin controller must match cycle by cycle) repeats
// exactly, and another seed gives another sequence.
func TestSameSeedSameAdoptionSequence(t *testing.T) {
	sequence := func(seed int64) []bool {
		w, err := setupFleet("fleet-shift-160", seed)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		if err := w.attachTwin(newTracer(w.spec.name, 0, time.Now())); err != nil {
			t.Fatal(err)
		}
		var adopted []bool
		for i := 0; i < 96; i++ {
			c := w.cycle(nil, i%2 == 0)
			if c.failed {
				t.Fatalf("seed %d cycle %d failed (the twin disagreed, or the peers did not converge)", seed, i)
			}
			adopted = append(adopted, c.adopted)
		}
		return adopted
	}
	a, b, other := sequence(1), sequence(1), sequence(2)
	rejected := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 1 twice: cycle %d adopted %v then %v", i, a[i], b[i])
		}
		if i%2 == 0 && !a[i] {
			rejected++
		}
		if i%2 == 1 && a[i] {
			t.Fatalf("steady cycle %d adopted a remap", i)
		}
	}
	if rejected == len(a)/2 {
		t.Fatal("no shift was ever adopted")
	}
	same := true
	for i := range a {
		same = same && a[i] == other[i]
	}
	if same && rejected > 0 {
		t.Log("seeds 1 and 2 happen to adopt the same shifts")
	}
}

// A corrupted binding must fail the output check, and a failed check
// must reach the exit code.
func TestCorruptedBindingFailsTheRun(t *testing.T) {
	w, err := setupFleet("fleet-shift-160", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if !w.converged() {
		t.Fatal("a freshly primed fleet is not converged")
	}
	p := w.peers[1]
	right := p.prog.Binding()[3]
	p.prog.SetBinding(3, right+1)
	if w.converged() {
		t.Fatal("output check passed with task 3 of peer 1 bound to the wrong PU")
	}
	// A steady cycle re-binds nothing, so the corruption stays and the
	// cycle counts as failed, without a latency sample.
	var run fleetRun
	run.note(false, w.cycle(nil, false))
	if ops := run.cycles(); ops.failed != 1 || len(run.steady.us) != 0 {
		t.Fatalf("corrupted cycle: %+v, %d samples", ops, len(run.steady.us))
	}
	r := newReport(w.spec.name, 1, quick, true)
	if err := r.finish(perLayer, zeroLayers(), run.cycles()); err != nil {
		t.Fatal(err)
	}
	if r.Correct || r.Result.Correct || r.Result.Failed != 1 {
		t.Fatalf("report of a failed check: %+v", r.Result)
	}
	p.prog.SetBinding(3, right)
	if !w.converged() {
		t.Fatal("restoring the binding did not restore the check")
	}
}

func TestUnknownWorkloadAndBadSecondsAreErrors(t *testing.T) {
	if _, err := runOnce("no-such-workload", 1, quick, false, t.TempDir()); err == nil {
		t.Error("unknown workload ran")
	}
	if _, err := runOnce("warm-ring160", 1, 0, false, t.TempDir()); err == nil {
		t.Error("0 seconds ran")
	}
	if !errors.Is(errIncorrect, errIncorrect) {
		t.Error("errIncorrect is not itself")
	}
}

// BENCHMARK.json is the contract; the tables in metrics.go are what the
// program reports. They must say the same, within the contract's limits.
func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var c struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metric      `json:"end_to_end"`
		PerLayer   []metric      `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if c.RunSeconds != defaultSeconds || c.RunSeconds < comparableSeconds {
		t.Errorf("run_seconds %d, program default %d, comparable from %d", c.RunSeconds, defaultSeconds, comparableSeconds)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", c.Paths)
	}
	// 4 + 22 x workloads runs, each at most the timed interval plus
	// set-up, warm-up and checks, must fit 3420 s with the two builds.
	if runs := 4 + 22*len(c.Workloads); runs*(c.RunSeconds+12) > 3420-300 {
		t.Errorf("%d runs of %d s do not fit the driver's budget", runs, c.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(c.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads, the program has %d", len(c.Workloads), len(workloadDefs))
	}
	for i, w := range c.Workloads {
		checkName(w.Name)
		if w != workloadDefs[i] {
			t.Errorf("workload %d: %+v, the program has %+v", i, w, workloadDefs[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the program has %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			checkName(g.Name)
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: %+v, the program has %+v", kind, i, g, w)
			}
			if !unit.MatchString(g.Unit) || (g.Better != "lower" && g.Better != "higher") {
				t.Errorf("%s %s: unit %q, better %q", kind, g.Name, g.Unit, g.Better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s carries a bound", kind, g.Name)
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s %s: bound %v, the program has %g", kind, g.Name, g.Bound, w.Bound)
			}
		}
	}
	compare("end_to_end", c.EndToEnd, endToEnd, true)
	compare("per_layer", c.PerLayer, perLayer, false)
	setup := endToEnd[len(endToEnd)-1]
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("last end-to-end metric is %+v, want setup_s", setup)
	}
}
