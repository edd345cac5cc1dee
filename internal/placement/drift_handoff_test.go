package placement

import (
	"math"
	"sort"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// sameDriftForm reports where the baseline's drift form differs from
// want's, bit for bit: "" when pairs and totals are identical.
func sameDriftForm(got, want *partitionBaseline) string {
	if len(got.base.pairs) != len(want.base.pairs) || len(got.base.totals) != len(want.base.totals) {
		return "shape"
	}
	for k, p := range got.base.pairs {
		if q := want.base.pairs[k]; p.i != q.i || p.j != q.j || math.Float64bits(p.v) != math.Float64bits(q.v) {
			return "pairs"
		}
	}
	for k, v := range got.base.totals {
		if math.Float64bits(v) != math.Float64bits(want.base.totals[k]) {
			return "totals"
		}
	}
	return ""
}

// checkDriftForm holds the cached drift form, when there is one, to a
// fresh build from the reconciler's current assignment and baseline,
// and reports whether there was one.
func checkDriftForm(t *testing.T, rec *Reconciler, epoch int) bool {
	t.Helper()
	rec.mu.Lock()
	cur, base, pb := rec.cur, rec.base, rec.driftBase
	rec.mu.Unlock()
	if pb == nil {
		return false
	}
	partOf, parts := make([]int, base.Order()), 1
	if hasPartitions(cur) {
		partOf, parts = partitionOf(cur.Partitions, base.Order()), len(cur.Partitions.Parts)
	}
	if diff := sameDriftForm(pb, newPartitionBaseline(partOf, parts, base)); diff != "" {
		t.Fatalf("epoch %d: cached drift form differs from a rebuild of the baseline (%s)", epoch, diff)
	}
	return true
}

// rewirePartition returns base with the internal traffic of partition
// part of a replaced by heavy pairs between its opposite ends: a shift
// a partition-scoped remap gains from.
func rewirePartition(base comm.Affinity, a *Assignment, part int) *comm.Sparse {
	ts := append([]int(nil), a.Partitions.Parts[part].Tasks...)
	sort.Ints(ts)
	in := make(map[int]bool, len(ts))
	for _, task := range ts {
		in[task] = true
	}
	win := comm.NewSparse(base.Order())
	base.ForEach(func(i, j int, v float64) {
		if !(in[i] && in[j]) {
			win.Set(i, j, v)
		}
	})
	for k := 0; k < len(ts)/2; k++ {
		win.AddSym(ts[k], ts[len(ts)-1-k], 1<<26)
	}
	return win
}

// TestDriftHandoffMatchesRebuild: an adopted window becomes the drift
// baseline by handing over the gather the epoch's drift walk already
// made, and that hand-off is bit-identical to building the form from
// the new baseline — for the dense unpartitioned loop, the sparse
// unpartitioned one and a partitioned mapping at 2k tasks.
func TestDriftHandoffMatchesRebuild(t *testing.T) {
	dense160 := func() (*topology.Topology, []comm.Affinity, []comm.Affinity, AdaptiveConfig) {
		ring, cliques := ringMatrix(160, 1<<20), strideClusters(160, 8, 1<<20)
		return topology.SMP20E7(), []comm.Affinity{ring}, []comm.Affinity{ring, cliques, cliques, ring, ring, cliques},
			AdaptiveConfig{Horizon: 500, Workload: adaptiveWorkload(160)}
	}
	sparse600 := func() (*topology.Topology, []comm.Affinity, []comm.Affinity, AdaptiveConfig) {
		ring, cliques := comm.SparseFromMatrix(ringMatrix(600, 1<<20)), comm.SparseFromMatrix(strideClusters(600, 40, 1<<20))
		cfg := AdaptiveConfig{Horizon: 500, Workload: adaptiveWorkload(600)}
		cfg.Options.PartitionThreshold = -1
		return topology.SMP20E7(), []comm.Affinity{ring}, []comm.Affinity{ring, cliques, cliques, ring, ring}, cfg
	}
	for name, setup := range map[string]func() (*topology.Topology, []comm.Affinity, []comm.Affinity, AdaptiveConfig){
		"dense 160": dense160, "sparse 600 unpartitioned": sparse600,
	} {
		top, prime, windows, cfg := setup()
		runHandoff(t, name, top, prime[0], windows, cfg, false)
	}

	// Partitioned at 2k on fleet1k: two partitions rewired in turn.
	eng, err := NewEngine(topology.Fleet1K())
	if err != nil {
		t.Fatal(err)
	}
	base := comm.RingOfClusters(64, 32, 1<<20, 1<<12)
	primed, _, err := eng.ComputeHinted(TreeMatch, base, 0, 0, Options{})
	if err != nil || !hasPartitions(primed) {
		t.Fatalf("prime: %v, partitioned %v", err, err == nil && hasPartitions(primed))
	}
	one := rewirePartition(base, primed, 1)
	runHandoff(t, "partitioned 2k", topology.Fleet1K(), base,
		[]comm.Affinity{base, one, one, rewirePartition(one, primed, 3), base}, AdaptiveConfig{}, true)
}

// runHandoff primes a reconciler on prime, runs one epoch per window
// from a recycling source and checks the cached drift form after every
// one; at least one adoption must have handed its gather over.
func runHandoff(t *testing.T, name string, top *topology.Topology, prime comm.Affinity, windows []comm.Affinity, cfg AdaptiveConfig, partitioned bool) {
	t.Helper()
	eng, err := NewEngine(top)
	if err != nil {
		t.Fatal(err)
	}
	src := &recyclingSource{affs: windows}
	rec, err := NewReconciler(eng, src, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Prime(Fixed("declared", prime)); err != nil {
		t.Fatal(err)
	}
	if hasPartitions(rec.Current()) != partitioned {
		t.Fatalf("%s: primed partitioned = %v", name, !partitioned)
	}
	handedOver := 0
	for e := range windows {
		rep, err := rec.Epoch()
		if err != nil {
			t.Fatalf("%s: epoch %d: %v", name, e+1, err)
		}
		if cached := checkDriftForm(t, rec, e+1); rep.Adopted && cached {
			handedOver++
		}
	}
	if handedOver == 0 {
		t.Fatalf("%s: no adoption handed its window's gather over", name)
	}
}

// TestDriftHandoffNeverStale: a drift walk that gathers nothing — a nil
// window, or one of another order — leaves nothing to hand over, so an
// adoption after it rebuilds instead of installing an earlier window's
// gather; and a reconciler fed such windows between real ones keeps a
// drift form equal to a rebuild after every epoch.
func TestDriftHandoffNeverStale(t *testing.T) {
	const n = 24
	ring, cliques := ringMatrix(n, 1<<20), strideClusters(n, 4, 1<<20)
	for name, bad := range map[string]comm.Affinity{"nil": nil, "typed nil": (*comm.Sparse)(nil), "wrong order": ringMatrix(n+8, 1<<20)} {
		pb := newPartitionBaseline(make([]int, n), 1, ring)
		out := make([]float64, 1)
		if d := pb.drift(out, cliques)[0]; d <= 0 {
			t.Fatalf("%s: ring -> cliques drift %g", name, d)
		}
		if d := pb.drift(out, bad)[0]; d != 1 {
			t.Fatalf("%s: incomparable window drift %g, want 1", name, d)
		}
		if pb.adopt() {
			t.Fatalf("%s: adopt handed over the gather of an earlier window", name)
		}
		if diff := sameDriftForm(pb, newPartitionBaseline(make([]int, n), 1, ring)); diff != "" {
			t.Fatalf("%s: a refused hand-off changed the baseline (%s)", name, diff)
		}
	}

	eng, err := NewEngine(topology.Fig2Machine())
	if err != nil {
		t.Fatal(err)
	}
	src := &phaseSource{affs: []comm.Affinity{cliques, ringMatrix(n+8, 1<<20), cliques, ring, nil, cliques, ringMatrix(n-8, 1<<20), ring}}
	rec, err := NewReconciler(eng, src, nil, AdaptiveConfig{Horizon: 500, Workload: adaptiveWorkload(n + 8), AdoptAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Prime(Fixed("declared", ring)); err != nil {
		t.Fatal(err)
	}
	for e := range src.affs {
		rec.Epoch() // an incomparable window may fail its epoch; the form must hold either way
		checkDriftForm(t, rec, e+1)
	}
}

// TestDriftWalkSteadyAllocatesNothing: once the first window has sized
// the scratch, a steady drift walk of a 2k-task sparse partitioned
// window allocates nothing.
func TestDriftWalkSteadyAllocatesNothing(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under -race")
	}
	eng, err := NewEngine(topology.Fleet1K())
	if err != nil {
		t.Fatal(err)
	}
	base := comm.RingOfClusters(64, 32, 1<<20, 1<<12)
	a, _, err := eng.ComputeHinted(TreeMatch, base, 0, 0, Options{})
	if err != nil || !hasPartitions(a) {
		t.Fatalf("prime: %v", err)
	}
	pb := newPartitionBaseline(partitionOf(a.Partitions, base.Order()), len(a.Partitions.Parts), base)
	window := base.Clone()
	out := make([]float64, len(a.Partitions.Parts))
	pb.drift(out, window)
	if allocs := testing.AllocsPerRun(10, func() { pb.drift(out, window) }); allocs != 0 {
		t.Fatalf("steady drift walk: %v allocations, want 0", allocs)
	}
	for pi, d := range out {
		if d != 0 {
			t.Fatalf("partition %d: steady drift %g", pi, d)
		}
	}
}

// TestDriftHandoffRebuildsOnNewPartitioning: an unpartitioned mapping
// whose recompute comes back partitioned changes the partitioning, so
// the adoption hands nothing over and the next epoch builds the drift
// form from the new baseline.
func TestDriftHandoffRebuildsOnNewPartitioning(t *testing.T) {
	const n = 600
	eng, err := NewEngine(topology.SMP20E7())
	if err != nil {
		t.Fatal(err)
	}
	ring, cliques := comm.SparseFromMatrix(ringMatrix(n, 1<<20)), comm.SparseFromMatrix(strideClusters(n, 40, 1<<20))
	flat, _, err := eng.ComputeHinted(TreeMatch, ring, 0, 0, Options{PartitionThreshold: -1})
	if err != nil || hasPartitions(flat) {
		t.Fatalf("one-run mapping: %v, partitioned %v", err, err == nil && hasPartitions(flat))
	}
	rec, err := NewReconciler(eng, &recyclingSource{affs: []comm.Affinity{ring, cliques, cliques}}, nil,
		AdaptiveConfig{Horizon: 500, Workload: adaptiveWorkload(n)})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.SetCurrent(flat, ring); err != nil {
		t.Fatal(err)
	}
	for e := 1; e <= 3; e++ {
		rep, err := rec.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		cached := checkDriftForm(t, rec, e)
		if e == 2 && (!rep.Adopted || !hasPartitions(rep.Assignment) || cached) {
			t.Fatalf("epoch 2: adopted %v, partitioned %v, drift form handed over %v; want a partitioned adoption that rebuilds",
				rep.Adopted, hasPartitions(rep.Assignment), cached)
		}
	}
}
