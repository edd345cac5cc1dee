package experiments

import (
	"strings"
	"testing"

	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// These tests pin the qualitative claims of the paper's evaluation:
// orderings, crossovers and improvement factors. Absolute values are
// modeled, so assertions use the shapes §VI reports, not its numbers.

func TestFig1MatrixStructure(t *testing.T) {
	m, text, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if m.Order() != 30 {
		t.Fatalf("order = %d, want 30", m.Order())
	}
	// Pipeline spine and split stars present.
	if m.At(0, 1) == 0 {
		t.Error("producer->gmm missing")
	}
	if m.At(1, 10) == 0 || m.At(1, 25) == 0 {
		t.Error("gmm split star missing")
	}
	if m.At(7, 26) == 0 {
		t.Error("ccl split star missing")
	}
	if !strings.Contains(text, "Fig. 1") {
		t.Error("render missing title")
	}
}

func TestFig2MappingReproducesPaperStructure(t *testing.T) {
	mapping, text, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	// 30 tasks on 32 cores: spare-core control mode, like the paper's
	// cores 22-23 being "automatically reserved for control threads".
	if mapping.Mode != treematch.ControlSpareCores {
		t.Errorf("control mode = %v, want spare-cores", mapping.Mode)
	}
	ctl := 0
	for _, pu := range mapping.ControlPU {
		if pu >= 0 {
			ctl++
		}
	}
	if ctl != 2 {
		t.Errorf("%d control placements, want 2 (32-30 spare cores)", ctl)
	}
	// One compute task per core.
	seen := map[int]bool{}
	for _, c := range mapping.CoreOf {
		if seen[c] {
			t.Fatal("core reused")
		}
		seen[c] = true
	}
	// The heavy gmm<->splits star must be kept close: the gmm master
	// shares a socket with several of its split workers... at minimum,
	// the mapping must beat scatter on the cost metric.
	m, _, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	top := topology.Fig2Machine()
	tmCost, err := treematch.Cost(top, m, mapping.ComputePU)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := treematch.Place(top, 30, treematch.StrategyScatter)
	scCost, _ := treematch.Cost(top, m, sc)
	if tmCost >= scCost {
		t.Errorf("treematch cost %g >= scatter %g", tmCost, scCost)
	}
	if !strings.Contains(text, "producer") {
		t.Error("render missing task names")
	}
}

func TestTableIMatchesPaper(t *testing.T) {
	tab := TableI()
	text := tab.Render()
	for _, want := range []string{
		"SMP12E5", "SMP20E7", "E5-4620", "E7-8837",
		"NUMAlink6", "NUMAlink5", "3.10.0", "2.6.32.46",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func seriesByLabel(f *Figure, label string) []float64 {
	for _, s := range f.Series {
		if s.Label == label {
			return s.Y
		}
	}
	return nil
}

func TestFig4Shapes(t *testing.T) {
	for _, top := range Machines() {
		fig, err := Fig4(top)
		if err != nil {
			t.Fatal(err)
		}
		orwl := seriesByLabel(fig, "ORWL")
		aff := seriesByLabel(fig, "ORWL(affinity)")
		omp := seriesByLabel(fig, "OpenMP")
		ompAff := seriesByLabel(fig, "OpenMP(affinity)")
		last := len(aff) - 1

		// At one core all configurations are equivalent (±10%).
		for _, s := range [][]float64{orwl, omp, ompAff} {
			if ratio := s[0] / aff[0]; ratio < 0.9 || ratio > 1.1 {
				t.Errorf("%s: 1-core ratio %g, want ~1", top.Attrs.Name, ratio)
			}
		}
		// The affinity module keeps scaling to the full machine.
		if aff[last] >= aff[0]/4 {
			t.Errorf("%s: ORWL(affinity) scaled only %gx", top.Attrs.Name, aff[0]/aff[last])
		}
		// At the largest core count: ORWL(affinity) is the fastest and
		// beats the native run by a substantial factor (paper: ~8x on
		// SMP12E5, ~3x on SMP20E7).
		for _, s := range [][]float64{orwl, omp, ompAff} {
			if aff[last] >= s[last] {
				t.Errorf("%s: ORWL(affinity) %g not fastest (vs %g)", top.Attrs.Name, aff[last], s[last])
			}
		}
		gain := orwl[last] / aff[last]
		wantGain := 2.0
		if top.Attrs.Hyperthreaded {
			wantGain = 4.0 // hyperthreading amplifies the win (§VII)
		}
		if gain < wantGain {
			t.Errorf("%s: affinity gain %.1fx, want >= %.1fx", top.Attrs.Name, gain, wantGain)
		}
		// Natives plateau: past 16 cores they improve far slower than
		// the affinity version.
		if orwl[last] > orwl[0] {
			t.Errorf("%s: native ORWL slower at full machine than at 1 core", top.Attrs.Name)
		}
	}
}

func TestFig4HyperthreadingAmplifiesGain(t *testing.T) {
	// §VII: moving to the hyperthreaded machine makes the ORWL gain
	// larger, because control threads get the sibling PUs.
	gains := map[string]float64{}
	for _, top := range Machines() {
		fig, err := Fig4(top)
		if err != nil {
			t.Fatal(err)
		}
		orwl := seriesByLabel(fig, "ORWL")
		aff := seriesByLabel(fig, "ORWL(affinity)")
		// Compare at 64 cores (index 4 on both machines).
		gains[top.Attrs.Name] = orwl[4] / aff[4]
	}
	if gains["SMP12E5"] <= gains["SMP20E7"] {
		t.Errorf("gain on hyperthreaded SMP12E5 (%.1fx) should exceed SMP20E7 (%.1fx)",
			gains["SMP12E5"], gains["SMP20E7"])
	}
}

func TestTableIICounters(t *testing.T) {
	res, err := k23Run(topology.SMP12E5(), 64)
	if err != nil {
		t.Fatal(err)
	}
	// Affinity zeroes migrations (both runtimes).
	if res.ORWLAffinity.CPUMigrations != 0 || res.OpenMPAffinity.CPUMigrations != 0 {
		t.Error("bound runs must not migrate")
	}
	if res.ORWL.CPUMigrations == 0 || res.OpenMP.CPUMigrations == 0 {
		t.Error("native runs must migrate")
	}
	// ORWL generates far more context switches than OpenMP (control
	// threads), with a slight reduction under affinity.
	if res.ORWL.ContextSwitches < 5*res.OpenMP.ContextSwitches {
		t.Errorf("ORWL switches %g not >> OpenMP %g",
			res.ORWL.ContextSwitches, res.OpenMP.ContextSwitches)
	}
	if res.ORWLAffinity.ContextSwitches >= res.ORWL.ContextSwitches {
		t.Error("affinity should slightly reduce ORWL context switches")
	}
	// Affinity cuts misses and stalls.
	if res.ORWLAffinity.L3Misses >= res.ORWL.L3Misses {
		t.Error("affinity should reduce ORWL L3 misses")
	}
	if res.ORWLAffinity.StalledCycles >= res.ORWL.StalledCycles {
		t.Error("affinity should reduce ORWL stalls")
	}
	// ORWL(affinity) has the fewest misses of all four configurations.
	for _, other := range []float64{res.ORWL.L3Misses, res.OpenMP.L3Misses, res.OpenMPAffinity.L3Misses} {
		if res.ORWLAffinity.L3Misses >= other {
			t.Error("ORWL(affinity) should have the fewest L3 misses")
		}
	}
}

func TestFig5Shapes(t *testing.T) {
	for _, top := range Machines() {
		fig, err := Fig5(top)
		if err != nil {
			t.Fatal(err)
		}
		aff := seriesByLabel(fig, "ORWL(Affinity)")
		mkl := seriesByLabel(fig, "MKL")
		scatter := seriesByLabel(fig, "MKL(scatter)")
		compact := seriesByLabel(fig, "MKL(compact)")
		last := len(aff) - 1

		// ORWL(Affinity) keeps scaling to the full machine and peaks
		// there.
		for i := 1; i <= last; i++ {
			if aff[i] < aff[i-1]*0.95 {
				t.Errorf("%s: ORWL(Affinity) dropped at tick %d (%g -> %g)",
					top.Attrs.Name, i, aff[i-1], aff[i])
			}
		}
		// The MKL variants stagnate: their best point is well below the
		// ORWL(Affinity) peak and they decline at full machine size.
		for _, s := range [][]float64{mkl, scatter, compact} {
			peak := 0.0
			for _, v := range s {
				if v > peak {
					peak = v
				}
			}
			if peak > aff[last]/2 {
				t.Errorf("%s: an MKL variant peaks at %g, too close to ORWL(Affinity) %g",
					top.Attrs.Name, peak, aff[last])
			}
			if s[last] >= peak {
				t.Errorf("%s: MKL variant should decline past its peak", top.Attrs.Name)
			}
		}
		// Inside one socket everything scales (8-core values all
		// within 2.5x of each other, as in the paper).
		idx8 := 3 // ticks are 1,2,4,8,...
		for _, s := range [][]float64{mkl, scatter, compact} {
			if aff[idx8] > s[idx8]*2.5 {
				t.Errorf("%s: 8-core gap too large (%g vs %g)", top.Attrs.Name, aff[idx8], s[idx8])
			}
		}
	}
}

func TestFig5CompactVsScatterCrossover(t *testing.T) {
	// §VI-B2: on the hyperthreaded machine the compact strategy wastes
	// half the performance at low thread counts (siblings first), while
	// scatter does not — the kind of machine-dependent behaviour that
	// makes manual tuning non-portable.
	fig, err := Fig5(topology.SMP12E5())
	if err != nil {
		t.Fatal(err)
	}
	scatter := seriesByLabel(fig, "MKL(scatter)")
	compact := seriesByLabel(fig, "MKL(compact)")
	if compact[1] >= scatter[1]*0.8 {
		t.Errorf("2 cores on SMP12E5: compact (%g) should trail scatter (%g)", compact[1], scatter[1])
	}
}

func TestTableIIICounters(t *testing.T) {
	res, err := matmulRun(topology.SMP12E5(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.ORWLAffinity.CPUMigrations != 0 || res.MKLScatter.CPUMigrations != 0 {
		t.Error("bound runs must not migrate")
	}
	if res.ORWLAffinity.L3Misses >= res.MKLScatter.L3Misses {
		t.Error("ORWL(Affinity) should out-localise bound MKL")
	}
	if res.ORWL.ContextSwitches < 10*res.MKL.ContextSwitches {
		t.Error("ORWL should context-switch much more than MKL")
	}
}

func TestFig6Shapes(t *testing.T) {
	for _, top := range Machines() {
		fig, err := Fig6(top)
		if err != nil {
			t.Fatal(err)
		}
		seq := seriesByLabel(fig, "Sequential")
		omp := seriesByLabel(fig, "OpenMP")
		ompAff := seriesByLabel(fig, "OpenMP(Affinity)")
		orwl := seriesByLabel(fig, "ORWL")
		aff := seriesByLabel(fig, "ORWL(Affinity)")
		for i := range fig.XTicks {
			// Orderings of Fig. 6: ORWL(Affinity) highest; ORWL beats
			// both OpenMP variants; OpenMP(Affinity) beats OpenMP.
			if !(aff[i] > orwl[i] && orwl[i] > ompAff[i] && ompAff[i] > omp[i]) {
				t.Errorf("%s %s: ordering violated: seq %g omp %g ompAff %g orwl %g aff %g",
					top.Attrs.Name, fig.XTicks[i], seq[i], omp[i], ompAff[i], orwl[i], aff[i])
			}
			// Affinity accelerates ORWL by a large factor (paper: 4.5x
			// and 2.5x) and OpenMP by a smaller one (2x and 1.5x).
			if aff[i] < 1.5*orwl[i] {
				t.Errorf("%s %s: ORWL affinity gain only %.2fx",
					top.Attrs.Name, fig.XTicks[i], aff[i]/orwl[i])
			}
			gainORWL := aff[i] / orwl[i]
			gainOMP := ompAff[i] / omp[i]
			if gainOMP >= gainORWL {
				t.Errorf("%s %s: OpenMP affinity gain %.2fx should trail ORWL's %.2fx",
					top.Attrs.Name, fig.XTicks[i], gainOMP, gainORWL)
			}
		}
		// Higher resolutions are slower across the board.
		for i := 1; i < len(aff); i++ {
			if aff[i] >= aff[i-1] {
				t.Errorf("%s: FPS should drop with resolution", top.Attrs.Name)
			}
		}
	}
}

func TestTableIVCounters(t *testing.T) {
	tab, err := TableIV()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	text := tab.Render()
	if !strings.Contains(text, "CPU migrations") {
		t.Error("missing migrations row")
	}
}

func TestAllArtifacts(t *testing.T) {
	arts, err := All()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fig1", "fig2", "fig3", "table1", "fig4", "fig4", "table2",
		"fig5", "fig5", "table3", "fig6", "fig6", "table4", "strategies", "summary"}
	if len(arts) != len(want) {
		t.Fatalf("artifacts = %d, want %d", len(arts), len(want))
	}
	for i, a := range arts {
		if a.ID != want[i] {
			t.Errorf("artifact %d = %q, want %q", i, a.ID, want[i])
		}
		if a.Text == "" {
			t.Errorf("artifact %q empty", a.ID)
		}
	}
}

func TestRenderHelpers(t *testing.T) {
	f := &Figure{
		ID: "Fig. X", Title: "test", XLabel: "cores", YLabel: "s",
		XTicks: []string{"1", "2"},
		Series: []Series{{Label: "a", Y: []float64{1.5, 2000}}, {Label: "b", Y: []float64{0}}},
	}
	out := f.Render()
	if !strings.Contains(out, "Fig. X") || !strings.Contains(out, "2000") {
		t.Errorf("figure render = %q", out)
	}
	// Short series render as "-".
	if !strings.Contains(out, "-") {
		t.Error("missing placeholder for short series")
	}
	tab := &Table{ID: "T", Title: "t", Columns: []string{"a", "b"}, Rows: [][]string{{"x", "y"}}}
	if !strings.Contains(tab.Render(), "x  y") && !strings.Contains(tab.Render(), "x") {
		t.Errorf("table render = %q", tab.Render())
	}
	if formatValue(0) != "0" || formatValue(12.34) != "12.3" {
		t.Error("formatValue wrong")
	}
}
