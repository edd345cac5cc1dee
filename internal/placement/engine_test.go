package placement

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orwlplace/internal/comm"
	"orwlplace/internal/orwl"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// TestStrategyNames pins the strategy table: every name in
// comparison-row order, the environment policies alone in
// ObliviousNames, and an unknown name refused.
func TestStrategyNames(t *testing.T) {
	want := []string{"treematch", "compact", "compact-cores", "scatter", "round-robin-pu", "none"}
	if got := Names(); !slices.Equal(got, want) {
		t.Errorf("Names() = %v, want %v", got, want)
	}
	if got := ObliviousNames(); !slices.Equal(got, want[1:5]) {
		t.Errorf("ObliviousNames() = %v, want %v", got, want[1:5])
	}
	eng, err := NewEngine(topology.TinyFlat())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = eng.ComputeHinted("no-such-strategy", nil, 0, 4, Options{})
	if err == nil || err.Error() != `placement: unknown strategy "no-such-strategy" (have [treematch compact compact-cores scatter round-robin-pu none])` {
		t.Errorf("unknown strategy: err = %v", err)
	}
	if st := eng.Stats(); st.Misses != 0 {
		t.Errorf("an unknown strategy counted as a miss: %+v", st)
	}
}

func TestComputeCacheHitMiss(t *testing.T) {
	eng, err := NewEngine(topology.Fig2Machine())
	if err != nil {
		t.Fatal(err)
	}
	m := comm.Ring(8, 1<<16, true)

	a1, _, err := eng.ComputeHinted(TreeMatch, m, 0, 0, Options{ControlThreads: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("after first compute: %+v", st)
	}

	// The same matrix again: a hit, and an identical assignment.
	a2, _, err := eng.ComputeHinted(TreeMatch, m.Clone(), 0, 0, Options{ControlThreads: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after repeat compute: %+v", st)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Errorf("cached assignment differs:\n%+v\n%+v", a1, a2)
	}

	// A different matrix, different options and a different strategy
	// each miss.
	if _, _, err := eng.ComputeHinted(TreeMatch, comm.Ring(8, 1<<10, true), 0, 0, Options{ControlThreads: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.ComputeHinted(TreeMatch, m, 0, 0, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.ComputeHinted("scatter", m, 0, 0, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("after distinct computes: %+v", st)
	}
}

// TestComputeSparse10k maps 10,000 tasks, a ring of clusters with O(n)
// nonzeros, onto the 1024-core fleet1k testbed through the partitioned
// path. The cold call must allocate far less than one dense order-10k
// slab (800 MB) would, and the repeat must come from the cache.
func TestComputeSparse10k(t *testing.T) {
	top := topology.Fleet1K()
	eng, err := NewEngine(top)
	if err != nil {
		t.Fatal(err)
	}
	a := comm.RingOfClusters(250, 40, 1<<20, 1<<12)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	asg, cached, err := eng.ComputeHinted(TreeMatch, a, 0, 0, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("the first mapping of the matrix claims to be cached")
	}
	if asg.Partitions == nil || len(asg.Partitions.Parts) < 2 {
		t.Fatalf("%d tasks mapped without partitions", a.Order())
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("cold mapping of %d tasks: %d partitions, %.1f MiB allocated", a.Order(), len(asg.Partitions.Parts), float64(alloc)/(1<<20))
	if alloc >= 64<<20 {
		t.Fatalf("cold mapping of %d tasks allocated %.1f MiB, want < 64 MiB", a.Order(), float64(alloc)/(1<<20))
	}
	if _, cached, err = eng.ComputeHinted(TreeMatch, a, 0, 0, Options{}); err != nil || !cached {
		t.Fatalf("repeated mapping: cached %v, err %v; want a cache hit", cached, err)
	}
}

func TestObliviousStrategiesIgnoreMatrix(t *testing.T) {
	eng, err := NewEngine(topology.TinyHT())
	if err != nil {
		t.Fatal(err)
	}
	// Two different matrices of the same order share the cache entry
	// for a matrix-oblivious strategy.
	if _, _, err := eng.ComputeHinted("compact", comm.Ring(4, 100, true), 0, 0, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.ComputeHinted("compact", comm.Uniform(4, 7), 0, 0, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want one hit one miss", st)
	}
	// A nil matrix with an explicit entity count also works.
	if _, _, err := eng.ComputeHinted("compact", nil, 0, 4, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Hits != 2 {
		t.Fatalf("stats = %+v, want second hit", st)
	}
	// Neither an environment policy nor the unbound baseline reads the
	// options: one entry each across option values.
	for _, name := range []string{"compact", None} {
		a, _, err := eng.ComputeHinted(name, nil, 0, 4, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, hit, err := eng.ComputeHinted(name, nil, 0, 4, Options{ControlThreads: true})
		if err != nil {
			t.Fatal(err)
		}
		if !hit || b != a {
			t.Errorf("%s: ControlThreads split the cache entry (hit %v)", name, hit)
		}
	}
	if st := eng.Stats(); st.Entries != 2 {
		t.Fatalf("stats = %+v, want one entry for compact and one for none", st)
	}
}

func TestOptionsCanonicalizedInCacheKey(t *testing.T) {
	eng, err := NewEngine(topology.TinyFlat())
	if err != nil {
		t.Fatal(err)
	}
	m := comm.Ring(4, 100, true)
	if _, _, err := eng.ComputeHinted(TreeMatch, m, 0, 0, Options{}); err != nil {
		t.Fatal(err)
	}
	// Spelled-out defaults are the same configuration: a hit.
	if _, _, err := eng.ComputeHinted(TreeMatch, m, 0, 0, Options{PartitionThreshold: treematch.DefaultPartitionThreshold}); err != nil {
		t.Fatal(err)
	}
	// Oblivious strategies ignore the options entirely: one entry.
	if _, _, err := eng.ComputeHinted("scatter", m, 0, 0, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.ComputeHinted("scatter", m, 0, 0, Options{ControlThreads: true}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want default-equivalent and options-insensitive hits", st)
	}
	if eng.TopologySignature() != Signature(eng.Topology()) {
		t.Error("cached topology signature disagrees with Signature()")
	}
}

// A cache hit returns the cached assignment itself — an immutable
// shared value — and a caller that edits one edits a Clone, which
// leaves the cache untouched.
func TestCachedAssignmentIsIsolated(t *testing.T) {
	eng, err := NewEngine(topology.TinyFlat())
	if err != nil {
		t.Fatal(err)
	}
	m := comm.Ring(4, 100, true)
	a1, _, err := eng.ComputeHinted(TreeMatch, m, 0, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := eng.ComputeHinted(TreeMatch, m, 0, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a1 {
		t.Fatal("a cache hit returned a copy, want the cached pointer")
	}
	edited := a2.Clone()
	edited.ComputePU[0] = -999
	a3, _, err := eng.ComputeHinted(TreeMatch, m, 0, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a3 != a1 || a3.ComputePU[0] == -999 {
		t.Error("an edited clone leaked into the cache")
	}
}

func TestNoneStrategyUnbound(t *testing.T) {
	eng, err := NewEngine(topology.TinyFlat())
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := eng.ComputeHinted(None, nil, 0, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Unbound || len(a.ComputePU) != 0 {
		t.Fatalf("none assignment = %+v", a)
	}
	if a.Mapping(eng.Topology()) != nil {
		t.Error("unbound assignment has a mapping")
	}
	pl := eng.SimPlacement(a, 7)
	if pl.Dynamic == nil || pl.Dynamic.Seed != 7 {
		t.Errorf("unbound SimPlacement = %+v, want dynamic policy", pl)
	}

	prog := orwl.MustProgram(4, "m")
	if err := Bind(prog, a); err != nil {
		t.Fatal(err)
	}
	if prog.Binding() != nil {
		t.Error("unbound assignment produced bindings")
	}
}

func TestBindCommitsAssignment(t *testing.T) {
	top := topology.TinyHT()
	eng, err := NewEngine(top)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := eng.ComputeHinted(TreeMatch, comm.Ring(4, 100, true), 0, 0, Options{ControlThreads: true})
	if err != nil {
		t.Fatal(err)
	}
	prog := orwl.MustProgram(4, "m")
	if err := Bind(prog, a); err != nil {
		t.Fatal(err)
	}
	b := prog.Binding()
	if len(b) != 4 {
		t.Fatalf("binding = %v", b)
	}
	for task, pu := range b {
		if pu != a.ComputePU[task] {
			t.Errorf("task %d bound to %d, assignment says %d", task, pu, a.ComputePU[task])
		}
	}
	// TinyHT reserves hyperthread siblings for control threads.
	if cpu := a.ControlPU; len(cpu) != 4 || slices.Contains(cpu, -1) {
		t.Errorf("control PUs = %v", cpu)
	}

	pl := eng.SimPlacement(a, 0)
	if pl.Dynamic != nil || !pl.LocalAlloc || len(pl.ComputePU) != 4 {
		t.Errorf("bound SimPlacement = %+v", pl)
	}
}

func TestCacheEviction(t *testing.T) {
	eng, err := NewEngine(topology.TinyFlat(), WithCacheEntries(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 3, 4} {
		if _, _, err := eng.ComputeHinted("compact", nil, 0, n, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2", st.Entries)
	}
	// The oldest key (n=2) was evicted; recomputing it misses.
	if _, _, err := eng.ComputeHinted("compact", nil, 0, 2, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Hits != 0 || st.Misses != 4 {
		t.Fatalf("stats = %+v, want 4 misses", st)
	}
	// n=4 is still resident.
	if _, _, err := eng.ComputeHinted("compact", nil, 0, 4, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want a hit on the resident key", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	eng, err := NewEngine(topology.TinyFlat(), WithCacheEntries(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, err := eng.ComputeHinted("compact", nil, 0, 4, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.Stats(); st.Hits != 0 || st.Misses != 2 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want no caching", st)
	}
}

func TestComputeValidation(t *testing.T) {
	eng, err := NewEngine(topology.TinyFlat())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.ComputeHinted("no-such-strategy", nil, 0, 4, Options{}); err == nil {
		t.Error("accepted unknown strategy")
	}
	if _, _, err := eng.ComputeHinted(TreeMatch, nil, 0, 4, Options{}); err == nil {
		t.Error("treematch accepted nil matrix")
	}
	if _, _, err := eng.ComputeHinted("compact", nil, 0, 0, Options{}); err == nil {
		t.Error("accepted zero entities with nil matrix")
	}
	if _, err := NewEngine(nil); err == nil {
		t.Error("accepted nil topology")
	}
}

func TestSignature(t *testing.T) {
	if Signature(topology.SMP12E5()) != Signature(topology.SMP12E5()) {
		t.Error("identical machines hash differently")
	}
	if Signature(topology.SMP12E5()) == Signature(topology.SMP20E7()) {
		t.Error("different machines hash alike")
	}
	restricted, err := topology.Restrict(topology.SMP12E5(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if Signature(topology.SMP12E5()) == Signature(restricted) {
		t.Error("restricted machine hashes like its parent")
	}
}

func TestPlaceFullPipeline(t *testing.T) {
	eng, err := NewEngine(topology.TinyFlat())
	if err != nil {
		t.Fatal(err)
	}
	prog := orwl.MustProgram(4, "main")
	err = prog.Run(func(ctx *orwl.TaskContext) error {
		if err := ctx.Scale("main", 128); err != nil {
			return err
		}
		h := orwl.NewHandle()
		if err := ctx.WriteInsert(h, orwl.Loc(ctx.TID(), "main"), ctx.TID()); err != nil {
			return err
		}
		if ctx.TID() > 0 {
			r := orwl.NewHandle()
			if err := ctx.ReadInsert(r, orwl.Loc(ctx.TID()-1, "main"), ctx.TID()); err != nil {
				return err
			}
		}
		return ctx.Schedule()
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's three steps: extract, compute, bind.
	aff, err := eng.Extract(Declared(prog))
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := eng.ComputeHinted(TreeMatch, aff.Dense(), 0, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Bind(prog, a); err != nil {
		t.Fatal(err)
	}
	if len(prog.Binding()) != 4 {
		t.Errorf("binding = %v", prog.Binding())
	}
	if a.Strategy != TreeMatch {
		t.Errorf("strategy = %q", a.Strategy)
	}
}

// Concurrent computes of the same uncached key must run the strategy
// exactly once: the first caller computes, the rest coalesce onto the
// in-flight call (singleflight). Run with -race.
func TestComputeSingleflight(t *testing.T) {
	eng, err := NewEngine(topology.TinyFlat())
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey{topo: eng.TopologySignature(), entities: 4, strategy: "test-singleflight"}
	var calls atomic.Int64
	started := make(chan struct{}, 1) // receives one token per run entry
	release := make(chan struct{})
	run := func() (*Assignment, error) {
		calls.Add(1)
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return &Assignment{Strategy: key.strategy, ComputePU: []int{0, 1, 2, 3}}, nil
	}

	const callers = 16
	results := make([]*cacheEntry, callers)
	hits := make([]bool, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, hit, err := eng.computeKeyed(key, key.strategy, run)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = a
			hits[i] = hit
		}(i)
	}
	<-started // the leader is inside run
	// Give the other goroutines a moment to park on the flight call;
	// any that arrive after completion hit the cache instead — either
	// way the strategy must not run again.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("strategy ran %d times for one key, want exactly 1", got)
	}
	leaders := 0
	for i, a := range results {
		if a == nil {
			t.Fatal("missing result")
		}
		if !hits[i] {
			leaders++
		}
		// The leader, every follower and the cache share one value.
		if a != results[0] {
			t.Fatalf("caller %d got its own copy, want the shared result", i)
		}
	}
	if leaders != 1 {
		t.Errorf("%d callers reported a miss, want exactly the leader", leaders)
	}
	a, hit, err := eng.computeKeyed(key, key.strategy, run)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || calls.Load() != 1 {
		t.Error("expected a cache hit after the flight completed")
	}
	if a != results[0] {
		t.Error("the cache holds a different value than the flight returned")
	}
	if st := eng.Stats(); st.Misses != 1 || st.Hits != callers {
		t.Errorf("stats = %+v, want 1 miss and %d hits", st, callers)
	}
}

// A failing in-flight compute must propagate its error to every waiter
// and leave nothing cached.
func TestComputeSingleflightError(t *testing.T) {
	eng, err := NewEngine(topology.TinyFlat())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// n = 0 entities: every strategy rejects the request.
			_, _, err := eng.ComputeHinted("compact", nil, 0, 0, Options{})
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Errorf("caller %d: expected an error", i)
		}
	}
	if st := eng.Stats(); st.Entries != 0 {
		t.Errorf("failed computes left %d cache entries", st.Entries)
	}
}

// A panicking strategy must resolve the in-flight call: parked
// followers get an error instead of deadlocking, the panic propagates
// to the leader, and the key recomputes on the next call.
func TestComputeSingleflightPanic(t *testing.T) {
	eng, err := NewEngine(topology.TinyFlat())
	if err != nil {
		t.Fatal(err)
	}
	key := cacheKey{topo: eng.TopologySignature(), entities: 2, strategy: "test-panic"}
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	run := func() (*Assignment, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		panic("strategy exploded")
	}

	leaderPanicked := make(chan bool, 1)
	go func() {
		defer func() { leaderPanicked <- recover() != nil }()
		eng.computeKeyed(key, key.strategy, run)
	}()
	<-started
	followerErr := make(chan error, 1)
	go func() {
		_, _, err := eng.computeKeyed(key, key.strategy, run)
		followerErr <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the follower park on the flight
	close(release)

	if !<-leaderPanicked {
		t.Error("leader should observe the strategy panic")
	}
	select {
	case err := <-followerErr:
		if err == nil {
			t.Error("follower should get an error from the panicked flight")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower deadlocked on a panicked flight")
	}
	// The key is not poisoned: a later call runs the strategy again
	// (and panics again, proving the flight entry was cleared).
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		eng.computeKeyed(key, key.strategy, run)
		return
	}()
	if !panicked {
		t.Error("flight entry not cleared: second call did not reach the strategy")
	}
}

// TestComputeOneKeySpace pins the mapping cache's single key space,
// comm.Fingerprint: a dense and a sparse copy of one matrix share one
// entry; a placement (PartitionThreshold pinned to -1) and the
// reconciler (the default threshold) keep entries of their own; and a
// comm-aware call without a matrix is refused before the cache.
func TestComputeOneKeySpace(t *testing.T) {
	eng, err := NewEngine(topology.Fig2Machine())
	if err != nil {
		t.Fatal(err)
	}
	m := ringMatrix(16, 1<<20)
	misses := func() uint64 { return eng.Stats().Misses }

	a1, cached, err := eng.ComputeHinted(TreeMatch, m, 0, 0, Options{})
	if err != nil || cached {
		t.Fatalf("first compute: cached %v, err %v", cached, err)
	}
	a2, cached, err := eng.ComputeHinted(TreeMatch, sparseCopy(m), 0, 0, Options{})
	if err != nil || !cached {
		t.Fatalf("sparse copy of a cached matrix: cached %v, err %v", cached, err)
	}
	if a2 != a1 || misses() != 1 {
		t.Fatalf("dense and sparse copies hold two entries (%d misses)", misses())
	}

	svc, err := NewLocalService(eng)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	resp, err := svc.Place(ctx, &PlaceRequest{Strategy: TreeMatch, Matrix: m})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit || misses() != 2 {
		t.Fatalf("placement shared the reconciler's entry: hit %v, %d misses", resp.CacheHit, misses())
	}
	if !slices.Equal(resp.Assignment.ComputePU, a1.ComputePU) {
		t.Fatalf("placement %v, reconciler %v: one run below the threshold must agree", resp.Assignment.ComputePU, a1.ComputePU)
	}
	if resp, err = svc.Place(ctx, &PlaceRequest{Strategy: TreeMatch, Matrix: sparseCopy(m)}); err != nil || !resp.CacheHit {
		t.Fatalf("sparse placement of a placed matrix: %v", err)
	}
	rec, err := NewReconciler(eng, Fixed("window", m), nil, AdaptiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Prime(Fixed("declared", sparseCopy(m))); err != nil {
		t.Fatal(err)
	}
	if rec.Current() != a1 || misses() != 2 {
		t.Fatalf("reconciler missed its own entry (%d misses)", misses())
	}

	for _, absent := range []comm.Affinity{nil, (*comm.Matrix)(nil), (*comm.Sparse)(nil)} {
		if _, _, err := eng.ComputeHinted(TreeMatch, absent, 0, 4, Options{}); err == nil {
			t.Fatalf("treematch without a matrix (%T) accepted", absent)
		}
	}
	if misses() != 2 {
		t.Fatalf("refused calls counted as misses: %d", misses())
	}
}
