package experiments

import (
	"fmt"
	"sync"

	"orwlplace/internal/apps/tracking"
	"orwlplace/internal/perfsim"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// StrategyTable runs the full strategy table of internal/placement —
// the paper's affinity module, every environment baseline and the
// unbound OS scheduler — over the HD tracking workload on both
// testbeds, one row per strategy in comparison-row order.
func StrategyTable() (*Table, error) {
	tops := Machines()
	t := &Table{
		ID:    "Strategies",
		Title: "Modeled seconds per placement strategy, HD tracking workload",
		Columns: []string{
			"strategy", tops[0].Attrs.Name, tops[1].Attrs.Name,
		},
	}
	cfg := tracking.PaperConfig(tracking.HD)
	w, err := cfg.Profile(trackingFrames)
	if err != nil {
		return nil, err
	}
	names := placement.Names()
	// The affinity module accounts for the runtime's control threads,
	// like the paper's configuration.
	opts := map[string]placement.Options{
		placement.TreeMatch: {ControlThreads: true},
	}
	// Every (strategy, machine) cell is independent: fan the per-machine
	// sweeps out in parallel and assemble rows in comparison-row order.
	perTop := make([][]*perfsim.Result, len(tops))
	errs := make([]error, len(tops))
	var wg sync.WaitGroup
	for ti, top := range tops {
		wg.Add(1)
		go func(ti int, top *topology.Topology) {
			defer wg.Done()
			perTop[ti], errs[ti] = runStrategiesParallel(top, w, names, opts)
		}(ti, top)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for ni, name := range names {
		row := []string{name}
		for ti := range tops {
			row = append(row, fmt.Sprintf("%.2f", perTop[ti][ni].Seconds))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
