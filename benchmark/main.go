// Command benchmark is the repository's benchmark: one seeded,
// self-checking harness for placements per second through the daemon and
// for the traffic shift -> re-bound loop of the fleet control plane, with
// a per-layer traced pass. README.md in this directory says what each
// workload is for and how to read the output; BENCHMARK.json at the
// repository root is the contract this program is run under.
//
// The acceptance driver runs one workload and one pass per process:
//
//	go run -C benchmark . --workload cold-clustered --seed 7 --seconds 12 --trace 0
//
// and reads the last line of standard output. People run everything:
//
//	go run -C benchmark . [-seed 1] [-seconds 12] [-repeat N [-seed-step 1]]
//
// which prints every metric of every workload, writes out/result.json
// and out/trace-<workload>.json, and with -repeat prints the spread of
// every end-to-end metric against its bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

func main() {
	workload := flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of every input generator")
	seconds := flag.Int("seconds", defaultSeconds, fmt.Sprintf("length of the timed interval; below %d the numbers are marked not comparable", comparableSeconds))
	trace := flag.Int("trace", 0, "with one workload: 0 = timed pass, end-to-end metrics; 1 = traced pass, per-layer metrics")
	repeat := flag.Int("repeat", 1, "with all workloads: run the timed passes this many times and print each end-to-end metric's spread against its bound")
	seedStep := flag.Int64("seed-step", 0, "with -repeat: add this to the seed for every repetition (the acceptance driver uses another seed for every run; 0 repeats one seed)")
	out := flag.String("out", "out", "directory for result.json and the trace files")
	flag.Parse()

	// The same load on every machine: two callers or peers and a daemon,
	// on at most four processors.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	if *workload == "all" {
		err = runAll(*seed, *seedStep, *seconds, *repeat, *out)
	} else {
		err = runOne(*workload, *seed, *seconds, *trace != 0, *out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

// errIncorrect is returned after the results were printed when an output
// check failed: the numbers of such a run do not count.
var errIncorrect = fmt.Errorf("output check failed")

// runOne is the acceptance driver's entry: one workload, one pass, the
// contract's result object as the last line of standard output.
func runOne(name string, seed int64, seconds int, traced bool, outDir string) error {
	rep, err := runOnce(name, seed, seconds, traced, outDir)
	if err != nil {
		return err
	}
	printReport(rep)
	if err := writeResult(outDir, []*report{rep}, nil); err != nil {
		return err
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return errIncorrect
	}
	return nil
}

// runAll runs every workload, timed and traced, repeat times over.
func runAll(seed, seedStep int64, seconds, repeat int, outDir string) error {
	if repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1")
	}
	var runs []*report
	correct := true
	for i := 0; i < repeat; i++ {
		s := seed + int64(i)*seedStep
		for _, name := range workloadNames() {
			// The spread table needs the timed pass only; the traced
			// pass runs once.
			passes := []bool{false}
			if i == 0 {
				passes = append(passes, true)
			}
			for _, traced := range passes {
				rep, err := runOnce(name, s, seconds, traced, outDir)
				if err != nil {
					return err
				}
				printReport(rep)
				runs = append(runs, rep)
				correct = correct && rep.Correct
			}
		}
	}
	spreads := spreadTable(runs)
	if err := writeResult(outDir, runs, spreads); err != nil {
		return err
	}
	if !correct {
		return errIncorrect
	}
	if repeat > 1 {
		printSpreads(spreads)
		for _, s := range spreads {
			if s.Verdict == "FAIL" {
				return fmt.Errorf("%s of %s spreads by %.3f of its median over the repeated runs, above its bound %.2f", s.Metric, s.Workload, s.Share, s.Bound)
			}
		}
	}
	return nil
}

// writeResult writes the machine-readable result beside the human
// table: every run with its metrics, units, sample counts and
// per-segment values.
func writeResult(outDir string, runs []*report, spreads []spread) error {
	data, err := json.MarshalIndent(struct {
		Runs    []*report `json:"runs"`
		Spreads []spread  `json:"spreads,omitempty"`
	}{runs, spreads}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "result.json"), data, 0o644)
}

// printReport prints one run as a table: every metric by name with its
// unit.
func printReport(r *report) {
	pass := "timed pass (tracing off): end-to-end metrics"
	defs := endToEnd
	if r.Traced {
		pass = "traced pass: per-layer metrics"
		defs = perLayer
	}
	fmt.Printf("== %s  seed %d  %s\n", r.Workload, r.Seed, pass)
	fmt.Printf("   %s; %s; GOMAXPROCS %d; %s\n", r.Load, r.Link, r.GOMAXPROCS, r.GoVersion)
	if !r.Comparable {
		fmt.Printf("   NOT COMPARABLE: -seconds %d is below %d\n", r.Seconds, comparableSeconds)
	}
	for _, d := range defs {
		v := r.Result.Metrics[d.Name]
		note := ""
		if series := r.Series[d.Name]; len(series) > 1 {
			lo, hi := minMax(series)
			note = fmt.Sprintf("  median of %d, min %.6g max %.6g", len(series), lo, hi)
		}
		if d.Bound > 0 {
			note += fmt.Sprintf("  (%s is better, bound %.2f)", d.Better, d.Bound)
		}
		fmt.Printf("   %-36s %14.6g %-6s%s\n", d.Name, v.Value, v.Unit, note)
	}
	if !r.Traced {
		lo, hi := minMax(r.Series["latency_p90_us"])
		fmt.Printf("   %-36s %14.6g %-6s  median of %d, min %.6g max %.6g  (report-only)\n", "latency_p90_us", r.P90US, "us", len(r.Series["latency_p90_us"]), lo, hi)
		fmt.Printf("   latency pooled over %d samples: p50 %.6g us", r.Samples["latency"], r.PooledP50US)
		if r.TailRank > 0 {
			fmt.Printf("; highest percentile with 10 samples beyond: p%g = %.6g us", r.TailRank, r.TailUS)
		}
		fmt.Println()
		if r.SteadyP50US > 0 {
			fmt.Printf("   steady cycles (nothing adopted): p50 %.6g us over %d samples; %d of %d shifts adopted, %d rejected\n",
				r.SteadyP50US, r.Samples["steady"], r.Samples["adopted"], r.Samples["shifts"], r.Samples["rejected"])
		}
	}
	verdict := "outputs correct"
	if !r.Correct {
		verdict = "OUTPUT CHECK FAILED"
	}
	ops := opCount{attempted: r.Result.Attempted, failed: r.Result.Failed}
	fmt.Printf("   %s: %d operations attempted, %d failed (failed share %.6g)\n", verdict, ops.attempted, ops.failed, ops.failedShare())
}

// spread is one end-to-end metric of one workload across the repeated
// runs.
type spread struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Share    float64   `json:"spread_share"`
	Bound    float64   `json:"bound"`
	Verdict  string    `json:"verdict"`
}

// spreadTable gathers every end-to-end metric across the timed runs of
// each workload. From four runs on the spread is the acceptance driver's:
// the distance between the quartiles as a share of the median; below
// that, the whole range as a share of the median.
func spreadTable(runs []*report) []spread {
	var out []spread
	for _, name := range workloadNames() {
		for _, d := range endToEnd {
			s := spread{Workload: name, Metric: d.Name, Bound: d.Bound}
			for _, r := range runs {
				if r.Workload == name && !r.Traced {
					s.Values = append(s.Values, r.Result.Metrics[d.Name].Value)
				}
			}
			if len(s.Values) < 2 {
				continue
			}
			if len(s.Values) >= 4 {
				s.Share = spreadShare(s.Values)
			} else if med := median(s.Values); med != 0 {
				lo, hi := minMax(s.Values)
				s.Share = (hi - lo) / med
			}
			switch {
			case d.Name == "setup_s":
				s.Verdict = "exempt" // the driver bounds its median, not its spread
			case s.Share <= d.Bound:
				s.Verdict = "PASS"
			default:
				s.Verdict = "FAIL"
			}
			out = append(out, s)
		}
	}
	return out
}

func printSpreads(spreads []spread) {
	fmt.Println("== spread of every end-to-end metric across the repeated runs, against its bound")
	for _, s := range spreads {
		vals := make([]string, len(s.Values))
		for i, v := range s.Values {
			vals[i] = fmt.Sprintf("%.6g", v)
		}
		fmt.Printf("   %-17s %-16s spread %.4f  bound %.2f  %-6s [%s]\n", s.Workload, s.Metric, s.Share, s.Bound, s.Verdict, strings.Join(vals, " "))
	}
}
