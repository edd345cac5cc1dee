package placement

import (
	"math"
	"math/rand"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// referenceDrift is Drift as it was before the dense loop stopped
// allocating: symmetrize both sides into fresh matrices, normalize,
// half the L1 distance. The walks that replaced it must agree with it.
func referenceDrift(a, b *comm.Matrix) float64 {
	if a == nil || b == nil || a.Order() != b.Order() {
		return 1
	}
	sa, sb := a.Symmetrized(), b.Symmetrized()
	ta, tb := sa.Total(), sb.Total()
	if ta == 0 && tb == 0 {
		return 0
	}
	if ta == 0 || tb == 0 {
		return 1
	}
	n := a.Order()
	var dist float64
	for i := 0; i < n; i++ {
		ra, rb := sa.RowView(i), sb.RowView(i)
		for j := range ra {
			dist += math.Abs(ra[j]/ta - rb[j]/tb)
		}
	}
	return dist / 2
}

// denseDriftCases builds the seeded dense matrices of one order.
func denseDriftCases(n int, rng *rand.Rand) map[string]*comm.Matrix {
	fill := func(density float64) *comm.Matrix {
		m := comm.NewMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Float64() < density {
					m.Set(i, j, 1+rng.Float64()*1e9)
				}
			}
		}
		return m
	}
	cases := map[string]*comm.Matrix{
		"zero":       comm.NewMatrix(n),
		"asymmetric": fill(0.1), // (i,j) and (j,i) drawn independently
		"sparse":     fill(0.02),
		"full":       fill(2), // every cell, diagonal included
		"ring":       ringMatrix(n, 1<<20),
	}
	diag := fill(0.05)
	for i := 0; i < n; i++ {
		diag.Set(i, i, 1e12) // must not count
	}
	cases["diagonal"] = diag
	hot := fill(0.05)
	if n > 1 {
		hot.Set(0, n-1, 1e15) // one pair carries nearly everything
	}
	cases["hot-pair"] = hot
	return cases
}

// TestDenseDriftMatchesReference: on every pair of seeded dense cases,
// Drift, DriftAffinity and the reconciler's cached
// baseline walk all agree with the reference to 1e-12.
func TestDenseDriftMatchesReference(t *testing.T) {
	eng, err := NewEngine(topology.SMP20E7())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 17, 160} {
		cases := denseDriftCases(n, rand.New(rand.NewSource(int64(n))))
		for baseName, base := range cases {
			rec, err := NewReconciler(eng, Fixed("unused", base), nil, AdaptiveConfig{})
			if err != nil {
				t.Fatal(err)
			}
			cur := &Assignment{Strategy: TreeMatch, ComputePU: make([]int, n)}
			if err := rec.SetCurrent(cur, base); err != nil {
				t.Fatal(err)
			}
			rec.mu.Lock()
			cur, owned := rec.cur, rec.base
			rec.mu.Unlock()
			for winName, window := range cases {
				want := referenceDrift(base, window)
				got := map[string]float64{
					"Drift":         Drift(base, window),
					"DriftAffinity": DriftAffinity(base, window),
					"cached":        rec.driftBaseline(cur, owned).drift(make([]float64, 1), window)[0],
					"cached/sparse": rec.driftBaseline(cur, owned).drift(make([]float64, 1), comm.SparseFromMatrix(window))[0],
				}
				for path, d := range got {
					if math.Abs(d-want) > 1e-12 {
						t.Errorf("order %d, %s -> %s: %s = %.15g, reference %.15g", n, baseName, winName, path, d, want)
					}
				}
			}
		}
	}
	a, b := ringMatrix(160, 1<<20), strideClusters(160, 8, 1<<20)
	if Drift(a, comm.NewMatrix(3)) != 1 || Drift(nil, b) != 1 {
		t.Error("incomparable matrices must be full drift")
	}
}

// recyclingSource scripts a Source that gives its windows away:
// it serves a fresh copy of affs[i] on call i (clamping at the last) and
// records what the reconciler hands back.
type recyclingSource struct {
	affs     []comm.Affinity
	calls    int
	served   []comm.Affinity
	recycled []comm.Affinity
}

func (s *recyclingSource) Name() string { return "recycling-script" }

func (s *recyclingSource) Affinity() (comm.Affinity, error) {
	a := s.affs[min(s.calls, len(s.affs)-1)].CloneAffinity()
	s.calls++
	s.served = append(s.served, a)
	return a, nil
}

func (s *recyclingSource) Recycle(a comm.Affinity) { s.recycled = append(s.recycled, a) }

// TestReconcilerDenseBaselineRefreshed: the unpartitioned dense loop
// measures drift against a cached form of its baseline, so every way the
// baseline changes must drop it — after an adoption, a SetCurrent and a
// Prime a steady epoch on the new baseline's own pattern measures 0,
// where a stale form would measure the distance to the previous
// baseline. The source recycles, which also pins the hand-off: a steady
// window comes back itself, and so does the window of a failed epoch;
// an adopted one is kept as the baseline, without a copy, and the
// baseline it replaced comes back.
func TestReconcilerDenseBaselineRefreshed(t *testing.T) {
	const n = 16
	eng, err := NewEngine(topology.Fig2Machine())
	if err != nil {
		t.Fatal(err)
	}
	ring, cliques, other := ringMatrix(n, 1<<20), strideClusters(n, 4, 1<<20), strideClusters(n, 2, 1<<20)
	src := &recyclingSource{}
	rec, err := NewReconciler(eng, src, nil, AdaptiveConfig{Horizon: 50, Workload: adaptiveWorkload(n)})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Prime(Fixed("declared", ring)); err != nil {
		t.Fatal(err)
	}
	epoch := func(window comm.Affinity) *EpochReport {
		t.Helper()
		src.affs, src.calls = []comm.Affinity{window}, 0
		rep, err := rec.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	steady := func(step string, window comm.Affinity) {
		t.Helper()
		rep := epoch(window)
		if rep.Drift > 1e-12 || rep.Recomputed || rep.PartitionDrifts != nil {
			t.Fatalf("%s: steady epoch drifts %v (recomputed %v, partition drifts %v)", step, rep.Drift, rep.Recomputed, rep.PartitionDrifts)
		}
		if last := len(src.recycled) - 1; last < 0 || src.recycled[last] != src.served[len(src.served)-1] {
			t.Fatalf("%s: the steady window was not handed back", step)
		}
	}
	steady("primed", ring) // builds the cached form of ring

	rec.mu.Lock()
	primed := rec.base
	rec.mu.Unlock()
	rep := epoch(cliques)
	if !rep.Adopted || math.Abs(rep.Drift-referenceDrift(ring, cliques)) > 1e-12 {
		t.Fatalf("shift: adopted %v, drift %v (reference %v), gain %v cost %v", rep.Adopted, rep.Drift, referenceDrift(ring, cliques), rep.GainSeconds, rep.CostSeconds)
	}
	rec.mu.Lock()
	adopted := rec.base
	rec.mu.Unlock()
	if adopted != src.served[len(src.served)-1] {
		t.Fatal("the adopted window was copied instead of installed as the baseline")
	}
	if src.recycled[len(src.recycled)-1] != primed {
		t.Fatal("the replaced baseline was not handed back")
	}
	steady("after adoption", cliques)

	if err := rec.SetCurrent(rec.Current(), other); err != nil {
		t.Fatal(err)
	}
	steady("after SetCurrent", other)

	if err := rec.Prime(Fixed("declared", ring)); err != nil {
		t.Fatal(err)
	}
	steady("after Prime", ring)

	// A window the 16-task model cannot score fails the epoch, and is
	// still handed back.
	src.affs, src.calls = []comm.Affinity{ringMatrix(2*n, 1<<20)}, 0
	if _, err := rec.Epoch(); err == nil {
		t.Fatal("an epoch over a wider task space than the mapping succeeded")
	}
	if src.recycled[len(src.recycled)-1] != src.served[len(src.served)-1] {
		t.Fatal("the window of a failed epoch was not handed back")
	}
	steady("after a failed epoch", ring)

	// In between the cache does its job: steady epochs share one form.
	rec.mu.Lock()
	cached := rec.driftBase
	rec.mu.Unlock()
	steady("second steady epoch", ring)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if cached == nil || rec.driftBase != cached {
		t.Fatalf("steady epochs rebuilt the baseline form (%p -> %p)", cached, rec.driftBase)
	}
}
