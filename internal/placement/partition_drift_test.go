package placement

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// referencePartitionDrift is PartitionDrift as it stood before the
// sort-merge rewrite — two symmetrized sparse matrices and At lookups —
// kept as the semantic reference the new one is checked against.
func referencePartitionDrift(parts *treematch.Partitioning, base, window comm.Affinity) []float64 {
	out := make([]float64, len(parts.Parts))
	if base == nil || window == nil || base.Order() != window.Order() {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	n := base.Order()
	partOf := make([]int, n)
	for i := range partOf {
		partOf[i] = -1
	}
	for pi, p := range parts.Parts {
		for _, g := range p.Tasks {
			if g >= 0 && g < n {
				partOf[g] = pi
			}
		}
	}
	sa, sb := symmetrized(base), symmetrized(window)
	ta := make([]float64, len(out))
	tb := make([]float64, len(out))
	internal := func(i, j int) int {
		if pi := partOf[i]; pi >= 0 && partOf[j] == pi {
			return pi
		}
		return -1
	}
	sa.ForEach(func(i, j int, v float64) {
		if pi := internal(i, j); pi >= 0 {
			ta[pi] += v
		}
	})
	sb.ForEach(func(i, j int, v float64) {
		if pi := internal(i, j); pi >= 0 {
			tb[pi] += v
		}
	})
	dist := make([]float64, len(out))
	sa.ForEach(func(i, j int, va float64) {
		if pi := internal(i, j); pi >= 0 && ta[pi] > 0 && tb[pi] > 0 {
			dist[pi] += math.Abs(va/ta[pi] - sb.At(i, j)/tb[pi])
		}
	})
	sb.ForEach(func(i, j int, vb float64) {
		if pi := internal(i, j); pi >= 0 && ta[pi] > 0 && tb[pi] > 0 && sa.At(i, j) == 0 {
			dist[pi] += vb / tb[pi]
		}
	})
	for pi := range out {
		switch {
		case ta[pi] == 0 && tb[pi] == 0:
			out[pi] = 0
		case ta[pi] == 0 || tb[pi] == 0:
			out[pi] = 1
		default:
			out[pi] = dist[pi] / 2
		}
	}
	return out
}

// randomPartitioning spreads n tasks over k partitions, leaving about
// one task in eight in no partition, some partitions possibly empty,
// and a few out-of-range task ids in the lists (ignored by contract).
func randomPartitioning(rng *rand.Rand, n, k int) *treematch.Partitioning {
	parts := make([]treematch.Partition, k)
	for task := 0; task < n; task++ {
		if rng.Intn(8) == 0 {
			continue
		}
		pi := rng.Intn(k)
		if k > 2 && pi == k-1 {
			continue // the last partition stays empty
		}
		parts[pi].Tasks = append(parts[pi].Tasks, task)
	}
	parts[0].Tasks = append(parts[0].Tasks, -1, n, n+7)
	return &treematch.Partitioning{Parts: parts}
}

// randomAffinity fills an order-n affinity (dense or sparse, by coin)
// with about perRow nonzeros a row: asymmetric (one direction only, or
// both with different volumes), some on the diagonal, non-integral so
// the order of a summation shows in the last bits.
func randomAffinity(rng *rand.Rand, n, perRow int) comm.Affinity {
	var a comm.Affinity = comm.NewSparse(n)
	if rng.Intn(2) == 0 {
		a = comm.NewMatrix(n)
	}
	for i := 0; i < n; i++ {
		for k := 0; k < perRow; k++ {
			j := rng.Intn(n)
			a.Set(i, j, rng.Float64()*1e6)
			if rng.Intn(3) == 0 {
				a.Set(j, i, rng.Float64()*1e3)
			}
		}
	}
	return a
}

// TestPartitionDriftMatchesReference: on seeded random partitionings
// and affinities — tasks in no partition, empty partitions, all-zero
// sides, asymmetric entries, cross-partition traffic, either
// representation — the sort-merge PartitionDrift agrees with the
// reference to 1e-12.
func TestPartitionDriftMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := []int{1, 7, 64, 300, 700}[seed%5]
		parts := randomPartitioning(rng, n, 1+rng.Intn(9))
		base := randomAffinity(rng, n, 1+rng.Intn(6))
		window := randomAffinity(rng, n, 1+rng.Intn(6))
		switch seed % 6 {
		case 0:
			base = comm.NewAffinity(n) // all-zero baseline
		case 1:
			window = comm.NewSparse(n) // all-zero window
		case 2:
			// The baseline pattern, rescaled, plus cross-partition noise
			// only: no partition may alarm.
			window = comm.NewSparse(n)
			base.ForEach(func(i, j int, v float64) { window.Set(i, j, 3*v) })
		}
		got := PartitionDrift(parts, base, window)
		want := referencePartitionDrift(parts, base, window)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d drifts, want %d", seed, len(got), len(want))
		}
		for pi := range want {
			if math.Abs(got[pi]-want[pi]) > 1e-12 || math.IsNaN(got[pi]) {
				t.Fatalf("seed %d (order %d, %T vs %T): partition %d drift %v, reference %v",
					seed, n, base, window, pi, got[pi], want[pi])
			}
			if seed%6 == 2 && got[pi] > 1e-12 {
				t.Fatalf("seed %d: rescaled partition %d drifts %v", seed, pi, got[pi])
			}
		}
	}
}

// TestPartitionDriftIncomparable: a missing side or an order mismatch
// is full drift everywhere, as before.
func TestPartitionDriftIncomparable(t *testing.T) {
	parts := &treematch.Partitioning{Parts: []treematch.Partition{{Tasks: []int{0, 1}}, {Tasks: []int{2, 3}}}}
	a := comm.NewSparse(4)
	a.AddSym(0, 1, 5)
	for name, d := range map[string][]float64{
		"nil base":       PartitionDrift(parts, nil, a),
		"nil window":     PartitionDrift(parts, a, nil),
		"order mismatch": PartitionDrift(parts, a, comm.NewSparse(5)),
	} {
		if len(d) != 2 || d[0] != 1 || d[1] != 1 {
			t.Errorf("%s: drift %v, want [1 1]", name, d)
		}
	}
}

// TestDriftTypedNilAffinity: a typed-nil *comm.Matrix or *comm.Sparse
// on either side of DriftAffinity or PartitionDrift is no matrix, so it
// is full drift, as a plain nil is — not a panic.
func TestDriftTypedNilAffinity(t *testing.T) {
	parts := &treematch.Partitioning{Parts: []treematch.Partition{{Tasks: []int{0, 1}}, {Tasks: []int{2, 3}}}}
	a := comm.NewSparse(4)
	a.AddSym(0, 1, 5)
	a.AddSym(2, 3, 5)
	for _, tc := range []struct {
		name   string
		absent comm.Affinity
	}{
		{"nil interface", nil},
		{"typed-nil dense", (*comm.Matrix)(nil)},
		{"typed-nil sparse", (*comm.Sparse)(nil)},
	} {
		for side, args := range map[string][2]comm.Affinity{
			"base":   {tc.absent, a},
			"window": {a, tc.absent},
		} {
			if d := DriftAffinity(args[0], args[1]); d != 1 {
				t.Errorf("%s %s: DriftAffinity = %v, want 1", tc.name, side, d)
			}
			if d := PartitionDrift(parts, args[0], args[1]); len(d) != 2 || d[0] != 1 || d[1] != 1 {
				t.Errorf("%s %s: PartitionDrift = %v, want [1 1]", tc.name, side, d)
			}
		}
	}
}

// TestPartitionDriftDeterministic: equal inputs give bit-identical
// drifts, call after call and whichever representation carries them —
// the summation runs in sorted pair order, not in map order.
func TestPartitionDriftDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 600
	parts := randomPartitioning(rng, n, 5)
	base, window := randomAffinity(rng, n, 9), randomAffinity(rng, n, 9)
	first := PartitionDrift(parts, base, window)
	for call := 0; call < 100; call++ {
		b, w := base, window
		if call%2 == 1 {
			b, w = sparseCopy(base), sparseCopy(window)
		}
		for pi, d := range PartitionDrift(parts, b, w) {
			if math.Float64bits(d) != math.Float64bits(first[pi]) {
				t.Fatalf("call %d: partition %d drift %x, first call %x", call, pi, math.Float64bits(d), math.Float64bits(first[pi]))
			}
		}
	}
}

// rewire returns base with the internal traffic of one partition
// replaced: its tasks paired up end to end with heavy volume.
func rewire(base comm.Affinity, tasks []int) *comm.Sparse {
	ts := append([]int(nil), tasks...)
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

// TestReconcilerPartitionBaselineRefreshed: the reconciler keeps the
// baseline's partition-drift form across steady epochs, so every way
// the baseline changes must drop it. After an adoption, a SetCurrent and
// a Prime, a steady epoch on the new
// baseline's own pattern measures drift 0 — a stale cached form would
// measure the distance to the previous baseline instead.
func TestReconcilerPartitionBaselineRefreshed(t *testing.T) {
	eng, err := NewEngine(topology.Fleet1K())
	if err != nil {
		t.Fatal(err)
	}
	base := comm.RingOfClusters(64, 32, 1<<20, 1<<12) // 2048 tasks, sparse
	asrc := &phaseSource{}
	rec, err := NewReconciler(eng, asrc, nil, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Prime(Fixed("declared", base)); err != nil {
		t.Fatal(err)
	}
	parts := rec.Current().Partitions
	if parts == nil || len(parts.Parts) < 3 {
		t.Fatalf("prime did not produce a partitioned mapping: %+v", parts)
	}
	// steady runs one epoch on window and requires it to match the
	// baseline in force.
	steady := func(step string, window comm.Affinity) {
		t.Helper()
		asrc.affs, asrc.calls = []comm.Affinity{window}, 0
		rep, err := rec.Epoch()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Drift > 1e-9 || rep.Recomputed || len(rep.PartitionDrifts) == 0 {
			t.Fatalf("%s: steady epoch drifts %v (recomputed %v, %d partitions)", step, rep.Drift, rep.Recomputed, len(rep.PartitionDrifts))
		}
	}
	steady("primed", base) // builds the cached form of base

	// Adoption: partition 1 rewired.
	shifted := rewire(base, parts.Parts[1].Tasks)
	asrc.affs, asrc.calls = []comm.Affinity{shifted}, 0
	rep, err := rec.Epoch()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Adopted {
		t.Fatalf("shift not adopted: drift %v gain %v cost %v", rep.Drift, rep.GainSeconds, rep.CostSeconds)
	}
	steady("after adoption", shifted)

	// SetCurrent: the same assignment over yet another baseline.
	other := rewire(base, parts.Parts[2].Tasks)
	if err := rec.SetCurrent(rec.Current(), other); err != nil {
		t.Fatal(err)
	}
	steady("after SetCurrent", other)

	// Prime: mapping and baseline recomputed from scratch.
	if err := rec.Prime(Fixed("declared", base)); err != nil {
		t.Fatal(err)
	}
	steady("after Prime", base)
	// And the cache is doing its job in between: two steady epochs in a
	// row share one baseline form.
	rec.mu.Lock()
	cached := rec.driftBase
	rec.mu.Unlock()
	steady("second steady epoch", base)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if cached == nil || rec.driftBase != cached {
		t.Fatalf("steady epochs rebuilt the baseline form (%p -> %p)", cached, rec.driftBase)
	}
}

// symmetrized is a's symmetrized form, s[i][j] = s[j][i] = a[i][j] +
// a[j][i] for i != j with a zero diagonal, stored sparse.
func symmetrized(a comm.Affinity) *comm.Sparse {
	s := comm.NewSparse(a.Order())
	a.ForEach(func(i, j int, v float64) {
		if i != j {
			s.Add(i, j, v)
			s.Add(j, i, v)
		}
	})
	return s
}
