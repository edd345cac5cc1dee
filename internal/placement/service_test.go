package placement

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

func testMatrix(t *testing.T, n int, weight float64) *comm.Matrix {
	t.Helper()
	m := comm.NewMatrix(n)
	for i := 1; i < n; i++ {
		m.AddSym(i-1, i, weight)
	}
	return m
}

func newTestService(t *testing.T) *LocalService {
	t.Helper()
	eng, err := NewEngine(topology.TinyHT())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewLocalService(eng)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestLocalServicePlace(t *testing.T) {
	svc := newTestService(t)
	ctx := context.Background()
	req := &PlaceRequest{Strategy: TreeMatch, Matrix: testMatrix(t, 4, 100)}

	resp, err := svc.Place(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Error("first call reported a cache hit")
	}
	if got := resp.Assignment.Entities(); got != 4 {
		t.Errorf("assignment entities = %d, want 4", got)
	}
	if resp.Cost <= 0 {
		t.Errorf("cost = %g, want > 0 for a communicating chain", resp.Cost)
	}
	if resp.ElapsedNS < 0 {
		t.Errorf("negative latency %d", resp.ElapsedNS)
	}

	again, err := svc.Place(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Error("identical second request missed the cache")
	}
	if again.Cache.Hits != 1 || again.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", again.Cache)
	}

	st, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Places != 2 {
		t.Errorf("places = %d, want 2", st.Places)
	}
	if st.TopologyName != "TinyHT" {
		t.Errorf("topology name = %q", st.TopologyName)
	}
	if len(st.Strategies) == 0 {
		t.Error("no strategies reported")
	}
	if st.TopologySignature != Signature(topology.TinyHT()) {
		t.Error("topology signature does not match a fresh TinyHT build")
	}
}

// TestLocalServiceQualityDiagnostics: the response's cost and cross-NUMA
// volume, from the one-pass quality walk and again from the memo, equal
// the pairwise sums over HopDistance and LocalityOf bit for bit.
func TestLocalServiceQualityDiagnostics(t *testing.T) {
	top, err := topology.ByName("smp12e5")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(top)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewLocalService(eng)
	if err != nil {
		t.Fatal(err)
	}
	m := comm.Clustered(24, 3, 1<<20, 1.5)
	for _, strategy := range []string{TreeMatch, "round-robin-pu"} {
		resp, err := svc.Place(context.Background(), &PlaceRequest{Strategy: strategy, Matrix: m})
		if err != nil {
			t.Fatal(err)
		}
		pus, place := top.PUs(), resp.Assignment.ComputePU
		var cost, cross float64
		for i := 0; i < m.Order(); i++ {
			for j := i + 1; j < m.Order(); j++ {
				v := m.At(i, j) + m.At(j, i)
				if v == 0 {
					continue
				}
				a, b := pus[place[i]], pus[place[j]]
				cost += v * float64(topology.HopDistance(a, b))
				if topology.LocalityOf(a, b) > topology.SameL3 {
					cross += v
				}
			}
		}
		again, err := svc.Place(context.Background(), &PlaceRequest{Strategy: strategy, Matrix: m})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*PlaceResponse{resp, again} {
			if math.Float64bits(r.Cost) != math.Float64bits(cost) || math.Float64bits(r.CrossNUMAVolume) != math.Float64bits(cross) {
				t.Errorf("%s: diagnostics (%v, %v), pairwise (%v, %v)", strategy, r.Cost, r.CrossNUMAVolume, cost, cross)
			}
		}
		if strategy != TreeMatch && cross == 0 {
			t.Errorf("%s: no cross-NUMA volume to compare", strategy)
		}
	}
}

func TestLocalServiceUnboundSkipsCost(t *testing.T) {
	svc := newTestService(t)
	resp, err := svc.Place(context.Background(), &PlaceRequest{
		Strategy: None, Matrix: testMatrix(t, 4, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Assignment.Unbound {
		t.Fatal("none strategy returned a bound assignment")
	}
	if resp.Cost != 0 || resp.CrossNUMAVolume != 0 {
		t.Errorf("unbound assignment has cost %g / cross-NUMA %g, want 0/0",
			resp.Cost, resp.CrossNUMAVolume)
	}
}

func TestLocalServiceErrors(t *testing.T) {
	svc := newTestService(t)
	ctx := context.Background()
	if _, err := svc.Place(ctx, nil); err == nil {
		t.Error("nil request accepted")
	}
	if _, err := svc.Place(ctx, &PlaceRequest{Strategy: "nope", Entities: 2}); err == nil {
		t.Error("unknown strategy accepted")
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := svc.Place(canceled, &PlaceRequest{Strategy: TreeMatch, Matrix: testMatrix(t, 2, 1)}); err == nil {
		t.Error("canceled context accepted")
	}
	if _, err := svc.Topology(canceled); err == nil {
		t.Error("Topology with canceled context succeeded")
	}
	if _, err := svc.Stats(canceled); err == nil {
		t.Error("Stats with canceled context succeeded")
	}
	if _, err := NewLocalService(nil); err == nil {
		t.Error("nil engine accepted")
	}
}

// TestLocalServiceTopologyIsACopy is the regression test for the
// live-pointer bug: Topology used to hand out the engine's own tree,
// so an in-process caller mutating it desynchronised the cached
// topology signature from the tree and corrupted cache keying.
func TestLocalServiceTopologyIsACopy(t *testing.T) {
	svc := newTestService(t)
	ctx := context.Background()
	before, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}

	top, err := svc.Topology(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if Signature(top) != before.TopologySignature {
		t.Fatal("returned topology does not fingerprint like the engine's")
	}
	// Maul the returned tree: rename it, inflate a cache, drop a child.
	top.Attrs.Name = "mutated"
	top.Root.CacheSize = 1 << 40
	top.Root.Children = top.Root.Children[:1]

	after, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.TopologySignature != before.TopologySignature {
		t.Error("mutating the returned topology changed the service's signature")
	}
	if after.TopologyName != before.TopologyName {
		t.Errorf("mutating the returned topology renamed the service's machine to %q", after.TopologyName)
	}
	if fresh, err := svc.Topology(ctx); err != nil || fresh.Attrs.Name != "TinyHT" || len(fresh.Root.Children) != 2 {
		t.Errorf("engine's own tree was reached through the copy: %+v, %v", fresh.Attrs, err)
	}
	if Signature(svc.Engine().Topology()) != before.TopologySignature {
		t.Error("engine tree no longer matches its cached signature")
	}
}

// TestServiceConcurrentPlace hammers one service from many goroutines
// alternating two distinct requests. The cache must stay consistent:
// every call is either a hit or a miss, at most a benign handful of
// duplicate misses happen (the engine computes outside its lock), and
// both distinct keys end up cached.
func TestServiceConcurrentPlace(t *testing.T) {
	svc := newTestService(t)
	ctx := context.Background()
	const workers = 8
	const callsPerWorker = 20

	reqs := []*PlaceRequest{
		{Strategy: TreeMatch, Matrix: testMatrix(t, 4, 100)},
		{Strategy: TreeMatch, Matrix: testMatrix(t, 6, 50)},
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < callsPerWorker; i++ {
				req := reqs[(w+i)%len(reqs)]
				resp, err := svc.Place(ctx, req)
				if err != nil {
					errs <- err
					return
				}
				if got, want := resp.Assignment.Entities(), req.Matrix.Order(); got != want {
					t.Errorf("entities = %d, want %d", got, want)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st, err := svc.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := uint64(workers * callsPerWorker)
	if st.Places != total {
		t.Errorf("places = %d, want %d", st.Places, total)
	}
	if st.Cache.Hits+st.Cache.Misses != total {
		t.Errorf("hits(%d) + misses(%d) != calls(%d)", st.Cache.Hits, st.Cache.Misses, total)
	}
	if st.Cache.Misses < uint64(len(reqs)) {
		t.Errorf("misses = %d, want >= %d distinct keys", st.Cache.Misses, len(reqs))
	}
	// Duplicate computes of one key are possible but bounded by the
	// worker count; the overwhelming majority must be hits.
	if st.Cache.Misses > uint64(len(reqs)*workers) {
		t.Errorf("misses = %d, far beyond plausible duplicate computes", st.Cache.Misses)
	}
	if st.Cache.Entries != len(reqs) {
		t.Errorf("cache entries = %d, want %d", st.Cache.Entries, len(reqs))
	}
}

// TestPlaceMapsInOneRunAboveThreshold pins the placement's promise:
// Place maps in one run at every order — the service pins
// PartitionThreshold to -1 — while the reconciler, on the same engine
// and matrix, partitions above the default threshold.
func TestPlaceMapsInOneRunAboveThreshold(t *testing.T) {
	top := topology.Fleet1K()
	m := comm.RingOfClusters(16, 40, 1<<20, 1<<12) // 640 tasks
	if m.Order() <= treematch.DefaultPartitionThreshold {
		t.Fatalf("order %d does not exceed the partition threshold", m.Order())
	}
	want, err := treematch.Map(top, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(top)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewLocalService(eng)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := &PlaceRequest{Strategy: TreeMatch, Matrix: m}
	resp, err := svc.Place(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if a := resp.Assignment; a.Partitions != nil || !slices.Equal(a.ComputePU, want.ComputePU) {
		t.Fatalf("Place of %d tasks: partitioned %v, or not treematch.Map's mapping", m.Order(), a.Partitions != nil)
	}

	rec, err := NewReconciler(eng, Fixed("window", m), nil, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Prime(Fixed("declared", m)); err != nil {
		t.Fatal(err)
	}
	if !hasPartitions(rec.Current()) {
		t.Fatalf("reconciler mapped %d tasks in one run", m.Order())
	}
}
