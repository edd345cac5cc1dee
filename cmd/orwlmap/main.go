// Command orwlmap maps a communication matrix onto a machine with the
// paper's Algorithm 1 and reports the placement, its cost, and how it
// compares to every bound strategy in the placement strategy table.
//
// Usage:
//
//	orwlmap [-m machine] [-control] [-matrix file | -pattern name -n N]
//
// The matrix file uses the text format of internal/comm (order on the
// first line, then rows). Built-in patterns: ring, pipeline, stencil,
// clustered, uniform, random.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"orwlplace/internal/comm"
	"orwlplace/internal/core"
	"orwlplace/internal/ompenv"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

func main() {
	machine := flag.String("m", "fig2", "machine: "+strings.Join(topology.MachineNames(), ", "))
	matrixPath := flag.String("matrix", "", "path to a communication matrix file")
	pattern := flag.String("pattern", "ring", "built-in pattern: ring, pipeline, stencil, clustered, uniform, random")
	n := flag.Int("n", 8, "entity count for built-in patterns")
	control := flag.Bool("control", true, "account for runtime control threads")
	ompPlaces := flag.String("omp-places", "", "evaluate an OMP_PLACES value as an extra strategy")
	ompBind := flag.String("omp-proc-bind", "", "OMP_PROC_BIND value for -omp-places")
	kmp := flag.String("kmp-affinity", "", "evaluate a KMP_AFFINITY value as an extra strategy")
	gomp := flag.String("gomp-cpu-affinity", "", "evaluate a GOMP_CPU_AFFINITY value as an extra strategy")
	flag.Parse()

	top, err := topology.ByName(*machine)
	if err != nil {
		fail(err)
	}
	m, err := loadMatrix(*matrixPath, *pattern, *n)
	if err != nil {
		fail(err)
	}
	eng, err := placement.NewEngine(top)
	if err != nil {
		fail(err)
	}

	// One run at any order, as a placement request maps.
	tm, _, err := eng.ComputeHinted(placement.TreeMatch, m, 0, 0, placement.Options{ControlThreads: *control, PartitionThreshold: -1})
	if err != nil {
		fail(err)
	}
	fmt.Print(core.RenderMapping(tm.Mapping(top), nil))

	fmt.Printf("\n%-16s %12s %14s\n", "strategy", "cost", "cross-NUMA B")
	report := func(name string, pus []int) {
		cost, cross, err := treematch.Quality(top, m, pus)
		if err != nil {
			fail(err)
		}
		fmt.Printf("%-16s %12.0f %14.0f\n", name, cost, cross)
	}
	// Every bound strategy of the table, the affinity module first
	// (comparison-row order).
	for _, name := range placement.Names() {
		if name == placement.TreeMatch {
			report(name, tm.ComputePU)
			continue
		}
		a, _, err := eng.ComputeHinted(name, m, 0, 0, placement.Options{})
		if err != nil {
			fail(err)
		}
		if a.Unbound {
			continue // no binding to cost
		}
		report(name, a.ComputePU)
	}
	// Optional OpenMP-style environment configuration as an extra row.
	if *ompPlaces != "" || *ompBind != "" || *kmp != "" || *gomp != "" {
		settings, err := ompenv.Parse(*ompPlaces, *ompBind, *kmp, *gomp)
		if err != nil {
			fail(err)
		}
		pus, err := settings.Placement(top, m.Order())
		if err != nil {
			fail(err)
		}
		if pus == nil {
			fmt.Printf("%-16s %12s %14s\n", "env (unbound)", "-", "-")
		} else {
			report("env", pus)
		}
	}
}

func loadMatrix(path, pattern string, n int) (*comm.Matrix, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return comm.Read(f)
	}
	if n < 1 {
		return nil, fmt.Errorf("orwlmap: -n %d: a pattern needs at least one entity", n)
	}
	switch pattern {
	case "ring":
		return comm.Ring(n, 1<<20, true), nil
	case "pipeline":
		return comm.Ring(n, 1<<20, false), nil
	case "stencil":
		gx, gy := nearSquare(n)
		return comm.Stencil2D(gx, gy, 1<<16, 1<<16), nil
	case "clustered":
		// The smallest divisor above 1 is the cluster count; one entity
		// is one cluster.
		k := min(2, n)
		for n%k != 0 {
			k++
		}
		return comm.Clustered(n, k, 1<<20, 1<<10), nil
	case "uniform":
		return comm.Uniform(n, 1<<16), nil
	case "random":
		return comm.Random(n, 1<<20, 1), nil
	default:
		return nil, fmt.Errorf("orwlmap: unknown pattern %q", pattern)
	}
}

func nearSquare(n int) (int, int) {
	gy := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			gy = d
		}
	}
	return n / gy, gy
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "%v\n", err)
	os.Exit(1)
}
