// Command benchjson runs the placement benchmarks with -benchmem and
// records them as machine-readable JSON, so the perf trajectory of the
// hot path is a committed artifact instead of scrollback. With a
// baseline file (see scripts/bench_baseline_pr3.json) each benchmark
// carries its "before" next to the fresh "after" plus the derived
// speedup ratios — the format of the BENCH_*.json trajectory files.
// Benchmarks without a baseline entry (the observed-traffic and
// adaptive-epoch additions of PR 5) record an "after" only; the
// instrumented/uninstrumented orwl pairs document the runtime
// counters' overhead.
//
// Usage:
//
//	benchjson [-o BENCH_PR10.json] [-bench regex] [-pkgs p1,p2] \
//	          [-benchtime 1s] [-baseline scripts/bench_baseline_pr3.json] \
//	          [-placeload 2s]
//
// With -placeload, the cmd/placeload transport driver also runs
// against an in-process daemon with its pipelined defaults, recorded
// as PlaceloadPipelined.
//
// scripts/bench.sh wraps it with the repo defaults; CI uploads the
// result as an artifact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Metrics is one benchmark measurement. Custom b.ReportMetric units
// (intra-volume, cost, ...) land in Extra.
type Metrics struct {
	Iters    int64              `json:"iters"`
	NsOp     float64            `json:"ns_op"`
	BytesOp  float64            `json:"b_op,omitempty"`
	AllocsOp float64            `json:"allocs_op,omitempty"`
	Extra    map[string]float64 `json:"extra,omitempty"`
}

// Entry pairs a benchmark's recorded baseline with the fresh run.
type Entry struct {
	Before *Metrics `json:"before,omitempty"`
	After  *Metrics `json:"after"`
	// SpeedupNs is before/after ns_op (higher is better).
	SpeedupNs float64 `json:"speedup_ns,omitempty"`
	// AllocRatio is before/after allocs_op (higher is better).
	AllocRatio float64 `json:"alloc_ratio,omitempty"`
}

// File is the BENCH_*.json schema.
type File struct {
	Schema    string           `json:"schema"`
	Generated string           `json:"generated"`
	Go        string           `json:"go"`
	CPU       string           `json:"cpu,omitempty"`
	Bench     string           `json:"bench_regex"`
	Benchtime string           `json:"benchtime"`
	Benches   map[string]Entry `json:"benches"`
}

// defaultBench targets the placement hot-path benches across the
// layers: full Map (the TreeMatchMap family includes the PR 9
// 10ktasks-1kcores sparse partitioned case), engine cold/cached/burst,
// grouping engines, matrix pipeline, the placement RPC round trip, the
// runtime traffic counters (instrumented vs uninstrumented pairs) and
// the adaptive reconciliation epoch and the PR 10 remap delta
// push (encode+decode+apply+sparse-rebind of a single-partition remap
// at 10k tasks; its extra metrics carry the push_bytes_ratio and
// rebind_ratio acceptance numbers).
const defaultBench = "TreeMatchMap|TreeMatchCold|TreeMatchCached|TreeMatchConcurrentBurst|" +
	"GroupGreedy|GroupExhaustive|MapRing160|SymmetrizedInto|ExtendInto|AggregateInto|" +
	"HeaviestPairsSparse|PlaceComputeRoundTrip|PlaceBatchRoundTrip|PlaceSequentialRoundTrip|" +
	"TrafficRecord|RawAcquireRelease|FifoPushPop|ObservedWindow|AdaptiveEpoch|RemapDeltaPush"

func defaultPkgs() []string {
	return []string{".", "./internal/placement", "./internal/treematch", "./internal/comm", "./internal/orwlnet", "./internal/orwl"}
}

func main() {
	out := flag.String("o", "BENCH_PR10.json", "output JSON path")
	bench := flag.String("bench", defaultBench, "benchmark regex passed to go test -bench")
	pkgs := flag.String("pkgs", strings.Join(defaultPkgs(), ","), "comma-separated packages to bench")
	benchtime := flag.String("benchtime", "1s", "go test -benchtime value")
	baseline := flag.String("baseline", "", "JSON file with recorded before-metrics (a prior benchjson output or a bare name->metrics map)")
	placeload := flag.Duration("placeload", 0, "also run the cmd/placeload transport driver for this window (0 skips it)")
	flag.Parse()

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem", "-benchtime", *benchtime}
	args = append(args, strings.Split(*pkgs, ",")...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fail(fmt.Errorf("benchjson: go %s: %w", strings.Join(args, " "), err))
	}

	after, cpu := parseBenchOutput(string(raw))
	if len(after) == 0 {
		fail(fmt.Errorf("benchjson: no benchmarks matched %q", *bench))
	}

	before := map[string]*Metrics{}
	if *baseline != "" {
		before, err = readBaseline(*baseline)
		if err != nil {
			fail(err)
		}
	}

	file := File{
		Schema:    "orwlplace-bench/v1",
		Generated: time.Now().UTC().Format(time.RFC3339),
		Go:        runtime.Version(),
		CPU:       cpu,
		Bench:     *bench,
		Benchtime: *benchtime,
		Benches:   map[string]Entry{},
	}
	for name, m := range after {
		e := Entry{After: m, Before: before[name]}
		if e.Before != nil && m.NsOp > 0 {
			e.SpeedupNs = round2(e.Before.NsOp / m.NsOp)
			if m.AllocsOp > 0 {
				e.AllocRatio = round2(e.Before.AllocsOp / m.AllocsOp)
			}
		}
		file.Benches[name] = e
	}

	if *placeload > 0 {
		if err := runPlaceload(file.Benches, *placeload); err != nil {
			fail(err)
		}
	}

	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(file.Benches), *out)
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// parseBenchOutput extracts name -> metrics from go test -bench
// output, plus the reported cpu line. Metric fields come in
// "<value> <unit>" pairs after the iteration count.
func parseBenchOutput(out string) (map[string]*Metrics, string) {
	res := map[string]*Metrics{}
	var cpu string
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "cpu:") {
			cpu = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		}
		mm := benchLine.FindStringSubmatch(line)
		if mm == nil {
			continue
		}
		iters, _ := strconv.ParseInt(mm[2], 10, 64)
		m := &Metrics{Iters: iters}
		fields := strings.Fields(mm[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsOp = v
			case "B/op":
				m.BytesOp = v
			case "allocs/op":
				m.AllocsOp = v
			default:
				if m.Extra == nil {
					m.Extra = map[string]float64{}
				}
				m.Extra[fields[i+1]] = v
			}
		}
		res[mm[1]] = m
	}
	return res, cpu
}

// readBaseline accepts either a full benchjson File (before-metrics
// are taken from each entry's "after") or a bare name -> Metrics map.
func readBaseline(path string) (map[string]*Metrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err == nil && len(f.Benches) > 0 {
		out := map[string]*Metrics{}
		for name, e := range f.Benches {
			out[name] = e.After
		}
		return out, nil
	}
	var bare map[string]*Metrics
	if err := json.Unmarshal(data, &bare); err != nil {
		return nil, fmt.Errorf("benchjson: %s: neither a benchjson file nor a name->metrics map: %w", path, err)
	}
	return bare, nil
}

// runPlaceload measures the daemon transport with cmd/placeload and
// records it as PlaceloadPipelined.
func runPlaceload(benches map[string]Entry, window time.Duration) error {
	args := []string{"run", "./cmd/placeload", "-json", "-duration", window.String()}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("benchjson: go %s: %w", strings.Join(args, " "), err)
	}
	var m Metrics
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("benchjson: placeload output: %w", err)
	}
	benches["PlaceloadPipelined"] = Entry{After: &m}
	return nil
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
