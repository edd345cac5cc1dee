// Command simulate runs a workload (JSON, see internal/perfsim
// ReadJSON) through the placement model on a chosen machine, comparing
// every strategy in the placement strategy table — the paper's
// affinity module, the oblivious environment policies and the unbound
// OS scheduler. It is the standalone face of the evaluation pipeline:
// describe your application's threads and communication, and see what
// automatic placement would buy.
//
// Usage:
//
//	simulate -w workload.json [-m machine] [-seed n]
//	simulate -demo            # built-in demo workload (K23, 64 cores)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"orwlplace/internal/apps/livermore"
	"orwlplace/internal/perfsim"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

func main() {
	machine := flag.String("m", "smp12e5", "machine: "+strings.Join(topology.MachineNames(), ", "))
	path := flag.String("w", "", "workload JSON file")
	demo := flag.Bool("demo", false, "use the built-in demo workload instead of -w")
	seed := flag.Int64("seed", 42, "seed for the simulated OS scheduler")
	flag.Parse()

	w, err := loadWorkload(*path, *demo)
	if err != nil {
		fail(err)
	}
	top, err := topology.ByName(*machine)
	if err != nil {
		fail(err)
	}
	eng, err := placement.NewEngine(top)
	if err != nil {
		fail(err)
	}
	fmt.Printf("workload %q: %d threads, %d iterations on %s\n\n",
		w.Name, len(w.Threads), w.Iterations, top.Attrs.Name)

	fmt.Printf("%-22s %12s %14s %14s %10s\n", "strategy", "seconds", "L3 misses", "stalled cyc", "migrations")
	// The strategy runs are independent: fan them out across goroutines
	// (the engine is concurrency-safe) and print in comparison-row order.
	names := placement.Names()
	type run struct {
		r   *perfsim.Result
		a   *placement.Assignment
		err error
	}
	runs := make([]run, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			// The affinity module runs with the paper's control-thread
			// accounting; the baselines have no options to tune.
			opt := placement.Options{}
			if name == placement.TreeMatch {
				opt.ControlThreads = true
			}
			runs[i].r, runs[i].a, runs[i].err = eng.Simulate(name, w, opt, *seed)
		}(i, name)
	}
	wg.Wait()
	results := map[string]*perfsim.Result{}
	var affinityMode fmt.Stringer
	for i, name := range names {
		if runs[i].err != nil {
			fail(runs[i].err)
		}
		label := name
		if name == placement.None {
			label = "none (os-scheduler)"
		}
		r := runs[i].r
		fmt.Printf("%-22s %12.3f %14.3g %14.3g %10.0f\n",
			label, r.Seconds, r.L3Misses, r.StalledCycles, r.CPUMigrations)
		results[name] = r
		if name == placement.TreeMatch {
			affinityMode = runs[i].a.Mode
		}
	}

	aff, dyn := results[placement.TreeMatch], results[placement.None]
	if aff != nil && dyn != nil && aff.Seconds > 0 {
		fmt.Printf("\naffinity speedup over the OS scheduler: %.2fx (control mode: %s)\n",
			dyn.Seconds/aff.Seconds, affinityMode)
	}
}

// loadWorkload reads the workload the flags name: the file -w names,
// or the built-in demo under -demo. Exactly one of them must be set.
func loadWorkload(path string, demo bool) (*perfsim.Workload, error) {
	switch {
	case demo && path != "":
		return nil, fmt.Errorf("simulate: -demo and -w %s both name a workload; pass one", path)
	case demo:
		return livermore.Profile(16384, 64, 100)
	case path == "":
		return nil, fmt.Errorf("simulate: -w workload.json or -demo required")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return perfsim.ReadJSON(f)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "%v\n", err)
	os.Exit(1)
}
