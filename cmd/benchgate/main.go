// Command benchgate is the CI regression gate over benchjson files:
// it compares a fresh run against the recorded baseline and fails
// (exit 1) when a gated benchmark degrades beyond the tolerance.
//
//	scripts/bench.sh -o BENCH_FRESH.json
//	go run ./cmd/benchgate -baseline BENCH_PR8.json -fresh BENCH_FRESH.json
//
// The ns/op benchmarks matched by -gate (default the TreeMatchMap
// family) are gated: fresh ns/op must not exceed baseline by more than
// -max-regress.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
)

// The benchjson file schema (the subset the gate reads).
type metrics struct {
	NsOp float64 `json:"ns_op"`
}

type entry struct {
	After *metrics `json:"after"`
}

type file struct {
	Benches map[string]entry `json:"benches"`
}

func load(path string) (*file, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f file
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benches) == 0 {
		return nil, fmt.Errorf("%s: no benches recorded", path)
	}
	return &f, nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_PR6.json", "recorded baseline benchjson file")
	freshPath := flag.String("fresh", "", "fresh benchjson file to gate (required)")
	gate := flag.String("gate", "TreeMatchMap", "regexp of ns/op benchmarks to gate")
	maxRegress := flag.Float64("max-regress", 0.25, "tolerated fractional degradation")
	flag.Parse()
	if *freshPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -fresh is required")
		os.Exit(2)
	}
	gateRE, err := regexp.Compile(*gate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: bad -gate: %v\n", err)
		os.Exit(2)
	}
	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	failed := 0
	checked := 0
	for name, b := range base.Benches {
		if !gateRE.MatchString(name) || b.After == nil || b.After.NsOp <= 0 {
			continue
		}
		f, ok := fresh.Benches[name]
		if !ok || f.After == nil {
			fmt.Printf("benchgate: FAIL %-40s missing from fresh run\n", name)
			failed++
			continue
		}
		checked++
		ratio := f.After.NsOp / b.After.NsOp
		verdict := "ok  "
		if ratio > 1+*maxRegress {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("benchgate: %s %-40s ns/op %10.0f -> %10.0f (%+.1f%%)\n",
			verdict, name, b.After.NsOp, f.After.NsOp, (ratio-1)*100)
	}
	if checked == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no baseline benchmark matched %q\n", *gate)
		os.Exit(2)
	}

	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d regression(s) beyond %.0f%%\n", failed, *maxRegress*100)
		os.Exit(1)
	}
	fmt.Println("benchgate: all gated benchmarks within tolerance")
}
