package placement

import (
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/perfsim"
	"orwlplace/internal/topology"
)

// phaseSource scripts a Source: it serves affs[i] on call i, clamping
// at the last — the replayed trace of a program whose communication
// pattern shifts mid-run.
type phaseSource struct {
	affs  []comm.Affinity
	calls int
}

func (s *phaseSource) Name() string { return "phase-script" }

func (s *phaseSource) Affinity() (comm.Affinity, error) {
	i := s.calls
	if i >= len(s.affs) {
		i = len(s.affs) - 1
	}
	s.calls++
	return s.affs[i], nil
}

// ringMatrix is a 1D pipeline: heavy volume between index neighbours.
func ringMatrix(n int, vol float64) *comm.Matrix {
	m := comm.NewMatrix(n)
	for i := 0; i+1 < n; i++ {
		m.AddSym(i, i+1, vol)
	}
	return m
}

// strideClusters groups {i, i+k, i+2k, ...} into all-to-all cliques —
// the worst case for a ring-optimal mapping, since clique members sit
// maximally far apart in pipeline order.
func strideClusters(n, k int, vol float64) *comm.Matrix {
	m := comm.NewMatrix(n)
	for base := 0; base < k; base++ {
		var members []int
		for i := base; i < n; i += k {
			members = append(members, i)
		}
		for x := 0; x < len(members); x++ {
			for y := x + 1; y < len(members); y++ {
				m.AddSym(members[x], members[y], vol)
			}
		}
	}
	return m
}

// adaptiveWorkload is the perfsim template the golden test models
// with: communication-dominated threads with a real working set, so
// remaps have both a measurable gain and a non-trivial cost.
func adaptiveWorkload(n int) *perfsim.Workload {
	threads := make([]perfsim.Thread, n)
	for i := range threads {
		threads[i] = perfsim.Thread{
			ComputeCycles: 1e5,
			WorkingSet:    1 << 20,
			MemoryTraffic: 1 << 14,
		}
	}
	return &perfsim.Workload{Name: "golden-shift", Threads: threads, Iterations: 1}
}

// TestAdaptiveGoldenShift is the acceptance scenario: a workload whose
// communication pattern shifts mid-run is re-placed by the
// observed-affinity loop and recovers a measurable fraction of the
// perfsim-modeled cost gap versus keeping the static initial mapping.
func TestAdaptiveGoldenShift(t *testing.T) {
	const (
		n       = 16
		vol     = 1 << 20
		horizon = 50
	)
	top := topology.Fig2Machine()
	eng, err := NewEngine(top)
	if err != nil {
		t.Fatal(err)
	}
	phaseA := ringMatrix(n, vol)
	phaseB := strideClusters(n, 4, vol)

	// Three epochs of the declared pattern, then the shift.
	src := &phaseSource{affs: []comm.Affinity{phaseA, phaseA, phaseA, phaseB, phaseB}}
	rec, err := NewReconciler(eng, src, nil, AdaptiveConfig{
		Horizon:  horizon,
		Workload: adaptiveWorkload(n),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Prime(Fixed("declared", phaseA)); err != nil {
		t.Fatal(err)
	}
	static := rec.Current() // the mapping a non-adaptive run keeps forever

	var adoptedAt uint64
	for epoch := 1; epoch <= 5; epoch++ {
		rep, err := rec.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		if epoch <= 3 {
			if rep.Recomputed || rep.Adopted {
				t.Fatalf("epoch %d: drift-free phase triggered a recompute (drift %.3f)", epoch, rep.Drift)
			}
			if rep.Drift > 0.01 {
				t.Fatalf("epoch %d: drift %.3f for an unchanged pattern", epoch, rep.Drift)
			}
		}
		if epoch == 4 {
			if !rep.Recomputed {
				t.Fatalf("epoch 4: pattern shift not detected (drift %.3f)", rep.Drift)
			}
			if !rep.Adopted {
				t.Fatalf("epoch 4: remap rejected (gain %.6fs, cost %.6fs)", rep.GainSeconds, rep.CostSeconds)
			}
			if rep.GainSeconds <= rep.CostSeconds {
				t.Fatalf("epoch 4: adopted with gain %.6fs <= cost %.6fs", rep.GainSeconds, rep.CostSeconds)
			}
			adoptedAt = rep.Epoch
		}
		if epoch == 5 && (rep.Recomputed || rep.Drift > 0.01) {
			t.Fatalf("epoch 5: loop did not settle after adopting (drift %.3f, recomputed %v)", rep.Drift, rep.Recomputed)
		}
	}
	if adoptedAt != 4 {
		t.Fatalf("adopted at epoch %d, want 4", adoptedAt)
	}

	st := rec.Stats()
	if st.Epochs != 5 || st.DriftEpochs != 1 || st.Remaps != 1 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want 5 epochs, 1 drift epoch, 1 remap, 0 rejected", st)
	}

	// The recovery criterion: under phase B, the adopted mapping must
	// close a measurable fraction of the modeled gap between the stale
	// static mapping and the oracle (a mapping computed directly on
	// phase B with a cold eye).
	w := adaptiveWorkload(n)
	w.Comm = phaseB
	w.Iterations = horizon
	model := func(a *Assignment) float64 {
		res, err := perfsim.Simulate(top, w, eng.SimPlacement(a, 1))
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	staticSec := model(static)
	adaptiveSec := model(rec.Current())
	oracle, _, err := eng.ComputeHinted(TreeMatch, phaseB, 0, n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracleSec := model(oracle)
	gap := staticSec - oracleSec
	if gap <= 0 {
		t.Fatalf("no modeled gap to recover (static %.6fs, oracle %.6fs): scenario is too easy", staticSec, oracleSec)
	}
	recovered := (staticSec - adaptiveSec) / gap
	t.Logf("modeled seconds over %d iterations: static %.6f, adaptive %.6f, oracle %.6f (recovered %.0f%% of the gap)",
		horizon, staticSec, adaptiveSec, oracleSec, 100*recovered)
	if recovered < 0.5 {
		t.Fatalf("adaptive mapping recovered only %.0f%% of the static-vs-oracle gap, want >= 50%%", 100*recovered)
	}
}

// TestAdaptiveDriftFreeNeverRemaps is the other half of the golden
// criterion: a workload whose traffic keeps its declared structure
// (including pure volume scaling, which is not drift) triggers zero
// remaps.
func TestAdaptiveDriftFreeNeverRemaps(t *testing.T) {
	const n = 16
	top := topology.Fig2Machine()
	eng, err := NewEngine(top)
	if err != nil {
		t.Fatal(err)
	}
	phase := ringMatrix(n, 1<<20)
	halfVolume := ringMatrix(n, 1<<19) // same structure, half the traffic
	src := &phaseSource{affs: []comm.Affinity{phase, halfVolume, phase, comm.NewMatrix(n), phase}}
	rec, err := NewReconciler(eng, src, nil, AdaptiveConfig{Workload: adaptiveWorkload(n)})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Prime(Fixed("declared", phase)); err != nil {
		t.Fatal(err)
	}
	for epoch := 1; epoch <= 5; epoch++ {
		rep, err := rec.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Recomputed || rep.Adopted {
			t.Fatalf("epoch %d: drift-free run recomputed (drift %.3f)", epoch, rep.Drift)
		}
	}
	st := rec.Stats()
	if st.Remaps != 0 || st.DriftEpochs != 0 {
		t.Fatalf("stats = %+v, want zero remaps and drift epochs", st)
	}
}

func TestDriftMetric(t *testing.T) {
	a := ringMatrix(8, 100)
	if d := Drift(a, a); d != 0 {
		t.Errorf("Drift(a, a) = %g, want 0", d)
	}
	scaled := ringMatrix(8, 500)
	if d := Drift(a, scaled); d > 1e-9 {
		t.Errorf("Drift(a, 5a) = %g, want ~0 (scaling is not drift)", d)
	}
	b := strideClusters(8, 4, 100)
	if d := Drift(a, b); d < 0.5 {
		t.Errorf("Drift(ring, clusters) = %g, want substantial", d)
	}
	if d := Drift(a, comm.NewMatrix(8)); d != 1 {
		t.Errorf("Drift(a, zero) = %g, want 1", d)
	}
	if d := Drift(comm.NewMatrix(8), comm.NewMatrix(8)); d != 0 {
		t.Errorf("Drift(zero, zero) = %g, want 0", d)
	}
	if d := Drift(a, comm.NewMatrix(4)); d != 1 {
		t.Errorf("Drift across orders = %g, want 1", d)
	}
	if d := Drift(nil, a); d != 1 {
		t.Errorf("Drift(nil, a) = %g, want 1", d)
	}
}

func TestReconcilerGuards(t *testing.T) {
	top := topology.Fig2Machine()
	eng, err := NewEngine(top)
	if err != nil {
		t.Fatal(err)
	}
	src := Fixed("trace", ringMatrix(4, 10))
	if _, err := NewReconciler(nil, src, nil, AdaptiveConfig{}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewReconciler(eng, nil, nil, AdaptiveConfig{}); err == nil {
		t.Error("nil source accepted")
	}
	rec, err := NewReconciler(eng, src, nil, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Epoch(); err == nil {
		t.Error("Epoch before Prime accepted")
	}
	if err := rec.SetCurrent(nil, nil); err == nil {
		t.Error("SetCurrent(nil, nil) accepted")
	}
}

// TestAdaptiveStatsReachService verifies the counters surface through
// the Service stats — the end-to-end threading of the feedback loop.
func TestAdaptiveStatsReachService(t *testing.T) {
	top := topology.Fig2Machine()
	eng, err := NewEngine(top)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewLocalService(eng)
	if err != nil {
		t.Fatal(err)
	}
	phase := ringMatrix(8, 1<<16)
	rec, err := NewReconciler(eng, Fixed("trace", phase), nil, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	svc.AttachReconciler(rec)
	if err := rec.Prime(Fixed("declared", phase)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := rec.Epoch(); err != nil {
			t.Fatal(err)
		}
	}
	st, err := svc.Stats(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if st.Adaptive.Epochs != 3 {
		t.Errorf("service adaptive epochs = %d, want 3", st.Adaptive.Epochs)
	}
}

// BenchmarkAdaptiveEpoch measures the steady-state (drift-free) epoch:
// extract + drift measurement, no recompute — the per-epoch overhead
// an application pays for running the loop.
func BenchmarkAdaptiveEpoch(b *testing.B) {
	top := topology.Fig2Machine()
	eng, err := NewEngine(top)
	if err != nil {
		b.Fatal(err)
	}
	phase := ringMatrix(32, 1<<20)
	rec, err := NewReconciler(eng, Fixed("trace", phase), nil, AdaptiveConfig{Workload: adaptiveWorkload(32)})
	if err != nil {
		b.Fatal(err)
	}
	if err := rec.Prime(Fixed("declared", phase)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rec.Epoch(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveEpochRemap measures the full alarm path: drift
// detection, strategy recompute (cache-hot after the first), modeling
// and adoption, oscillating between two patterns.
func BenchmarkAdaptiveEpochRemap(b *testing.B) {
	top := topology.Fig2Machine()
	eng, err := NewEngine(top)
	if err != nil {
		b.Fatal(err)
	}
	const n = 32
	a := ringMatrix(n, 1<<20)
	c := strideClusters(n, 4, 1<<20)
	flip := &phaseSource{}
	rec, err := NewReconciler(eng, flip, nil, AdaptiveConfig{Workload: adaptiveWorkload(n)})
	if err != nil {
		b.Fatal(err)
	}
	if err := rec.Prime(Fixed("declared", a)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			flip.affs = []comm.Affinity{c}
		} else {
			flip.affs = []comm.Affinity{a}
		}
		flip.calls = 0
		if _, err := rec.Epoch(); err != nil {
			b.Fatal(err)
		}
	}
}
