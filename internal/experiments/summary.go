package experiments

import (
	"fmt"

	"orwlplace/internal/apps/tracking"
)

// Summary condenses the whole evaluation into the paper's headline
// numbers: the speedup the automatic affinity module delivers over the
// unbound native run and over the best oblivious baseline, per
// application and machine ("spectacular performance improvements …
// up to 9x without changing a line of code", §I/§VI).
func Summary() (*Table, error) {
	t := &Table{
		ID:    "Summary",
		Title: "Affinity-module speedups (modeled), per application and machine",
		Columns: []string{
			"application", "machine", "vs native ORWL", "vs best baseline",
		},
	}
	addRow := func(app, machine string, native, baseline, affinity float64) {
		t.Rows = append(t.Rows, []string{
			app, machine,
			fmt.Sprintf("%.1fx", native/affinity),
			fmt.Sprintf("%.1fx", baseline/affinity),
		})
	}

	for _, top := range Machines() {
		cores := Fig4Cores(top)
		res, err := k23Run(top, cores[len(cores)-1])
		if err != nil {
			return nil, err
		}
		addRow("Livermore K23", top.Attrs.Name,
			res.ORWL.Seconds, res.OpenMPAffinity.Seconds, res.ORWLAffinity.Seconds)
	}
	for _, top := range Machines() {
		cores := Fig5Cores(top)
		res, err := matmulRun(top, cores[len(cores)-1])
		if err != nil {
			return nil, err
		}
		best := res.MKL.Seconds
		for _, r := range []float64{res.MKLScatter.Seconds, res.MKLCompact.Seconds} {
			if r < best {
				best = r
			}
		}
		addRow("Matrix multiplication", top.Attrs.Name,
			res.ORWL.Seconds, best, res.ORWLAffinity.Seconds)
	}
	for _, top := range Machines() {
		res, err := trackingRun(top, tracking.HD, trackingFrames)
		if err != nil {
			return nil, err
		}
		addRow("Video tracking (HD)", top.Attrs.Name,
			res.ORWL.Seconds, res.OpenMPAffinity.Seconds, res.ORWLAffinity.Seconds)
	}
	return t, nil
}
