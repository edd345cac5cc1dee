package perfsim

import (
	"testing"
	"testing/quick"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// computeWorkload builds a simple n-thread workload with the given comm
// pattern.
func computeWorkload(n int, m *comm.Matrix) *Workload {
	threads := make([]Thread, n)
	for i := range threads {
		threads[i] = Thread{ComputeCycles: 1e6, WorkingSet: 1 << 20, MemoryTraffic: 1 << 18}
	}
	return &Workload{
		Name:       "test",
		Threads:    threads,
		Comm:       m,
		Iterations: 10,
	}
}

func identityPlacement(n int) *Placement {
	pus := make([]int, n)
	for i := range pus {
		pus[i] = i
	}
	return &Placement{ComputePU: pus, LocalAlloc: true}
}

func TestValidate(t *testing.T) {
	w := &Workload{}
	if err := w.Validate(); err == nil {
		t.Error("accepted empty workload")
	}
	w = computeWorkload(2, comm.NewMatrix(3))
	if err := w.Validate(); err == nil {
		t.Error("accepted mismatched comm matrix")
	}
	w = computeWorkload(2, comm.NewMatrix(2))
	w.Iterations = 0
	if err := w.Validate(); err == nil {
		t.Error("accepted zero iterations")
	}
}

func TestSimulateValidation(t *testing.T) {
	top := topology.TinyFlat()
	w := computeWorkload(2, comm.NewMatrix(2))
	if _, err := Simulate(top, w, &Placement{ComputePU: []int{0}}); err == nil {
		t.Error("accepted short placement")
	}
	if _, err := Simulate(top, w, &Placement{ComputePU: []int{0, 99}}); err == nil {
		t.Error("accepted invalid PU")
	}
	// A nil matrix behind the interface is refused like the nil
	// interface, not dereferenced.
	for _, nilComm := range []comm.Affinity{nil, (*comm.Matrix)(nil), (*comm.Sparse)(nil)} {
		w.Comm = nilComm
		_, err := Simulate(top, w, identityPlacement(2))
		if err == nil || err.Error() != `perfsim: workload "test": comm matrix order mismatch` {
			t.Errorf("%T comm: err %v, want the order-mismatch refusal", nilComm, err)
		}
	}
}

func TestLocalCommCheaperThanRemote(t *testing.T) {
	top := topology.TinyFlat() // 2 NUMA x 4 cores
	m := comm.NewMatrix(2)
	m.AddSym(0, 1, 1<<20)
	w := computeWorkload(2, m)

	local, err := Simulate(top, w, &Placement{ComputePU: []int{0, 1}, LocalAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := Simulate(top, w, &Placement{ComputePU: []int{0, 4}, LocalAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	if local.Seconds >= remote.Seconds {
		t.Errorf("same-socket %gs not faster than cross-NUMA %gs", local.Seconds, remote.Seconds)
	}
	if local.L3Misses >= remote.L3Misses {
		t.Errorf("same-socket misses %g not fewer than cross-NUMA %g", local.L3Misses, remote.L3Misses)
	}
	if local.CrossNUMABytes != 0 {
		t.Errorf("same-socket run has cross-NUMA bytes %g", local.CrossNUMABytes)
	}
	if remote.CrossNUMABytes == 0 {
		t.Error("cross-NUMA run has no cross-NUMA bytes")
	}
}

func TestHyperthreadContention(t *testing.T) {
	top := topology.TinyHT() // cores have 2 PUs
	m := comm.NewMatrix(2)
	w := computeWorkload(2, m)
	w.Threads[0].MemoryTraffic = 0
	w.Threads[1].MemoryTraffic = 0

	separate, err := Simulate(top, w, &Placement{ComputePU: []int{0, 2}, LocalAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Simulate(top, w, &Placement{ComputePU: []int{0, 1}, LocalAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	// Sharing a physical core must roughly double the time.
	if shared.Seconds < separate.Seconds*1.8 {
		t.Errorf("HT sharing %gs vs separate %gs: contention too weak",
			shared.Seconds, separate.Seconds)
	}
}

func TestControlThreadSharingCost(t *testing.T) {
	top := topology.TinyHT()
	w := computeWorkload(1, comm.NewMatrix(1))
	w.Threads[0].MemoryTraffic = 0
	w.ControlThreads = 1
	w.ControlEventsPerIter = 4

	unbound, err := Simulate(top, w, &Placement{ComputePU: []int{0}, LocalAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := Simulate(top, w, &Placement{
		ComputePU: []int{0}, ControlPU: []int{1}, LocalAlloc: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Bound control threads: mild sibling interference but no global
	// noise, and fewer context switches.
	if sibling.ContextSwitches >= unbound.ContextSwitches {
		t.Errorf("bound control switches %g >= unbound %g",
			sibling.ContextSwitches, unbound.ContextSwitches)
	}
}

func TestCacheOverflowIncreasesMisses(t *testing.T) {
	top := topology.TinyFlat() // L3 = 4 MB
	small := computeWorkload(1, comm.NewMatrix(1))
	small.Threads[0].WorkingSet = 1 << 20 // fits
	small.Threads[0].ComputeCycles = 0    // memory-bound
	small.Threads[0].MemoryTraffic = 64 << 20
	big := computeWorkload(1, comm.NewMatrix(1))
	big.Threads[0].WorkingSet = 64 << 20 // overflows
	big.Threads[0].ComputeCycles = 0
	big.Threads[0].MemoryTraffic = 64 << 20

	rs, err := Simulate(top, small, identityPlacement(1))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Simulate(top, big, identityPlacement(1))
	if err != nil {
		t.Fatal(err)
	}
	if rb.L3Misses <= rs.L3Misses {
		t.Errorf("overflowing WS misses %g <= fitting WS %g", rb.L3Misses, rs.L3Misses)
	}
	if rb.Seconds <= rs.Seconds {
		t.Error("overflowing WS should be slower (DRAM vs L3 bandwidth)")
	}
}

func TestDynamicPlacementPolicies(t *testing.T) {
	top := topology.TinyHT() // 2 NUMA x 2 cores x 2 PUs
	consolidate, err := dynamicPlacement(top, 2, DynamicPolicy{Policy: PolicyConsolidate}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	pus := top.PUs()
	// Consolidation keeps both threads on the first NUMA node, on
	// distinct cores while cores remain free.
	n0 := pus[consolidate[0]].AncestorOfType(topology.NUMANode)
	n1 := pus[consolidate[1]].AncestorOfType(topology.NUMANode)
	if n0 != n1 || n0.LogicalIndex != 0 {
		t.Errorf("consolidate did not pack the first NUMA node")
	}
	if pus[consolidate[0]].Parent == pus[consolidate[1]].Parent {
		t.Error("consolidate packed hyperthread siblings while cores were free")
	}
	// Once a node's cores are exhausted, siblings are used before the
	// next node: 4 threads on TinyHT stay on node 0.
	packed, err := dynamicPlacement(top, 4, DynamicPolicy{Policy: PolicyConsolidate}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range packed {
		if pus[p].AncestorOfType(topology.NUMANode) != n0 {
			t.Error("consolidate spilled to a second node before saturating the first")
		}
	}
	spread, err := dynamicPlacement(top, 2, DynamicPolicy{Policy: PolicySpread}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	s0 := pus[spread[0]].AncestorOfType(topology.NUMANode)
	s1 := pus[spread[1]].AncestorOfType(topology.NUMANode)
	if s0 == s1 {
		t.Error("spread policy kept threads on one NUMA node")
	}
	if _, err := dynamicPlacement(top, 2, DynamicPolicy{Policy: SchedPolicy(9)}.withDefaults()); err == nil {
		t.Error("accepted unknown policy")
	}
}

func TestDynamicOversubscriptionWraps(t *testing.T) {
	top := topology.TinyFlat() // 8 PUs
	pl, err := dynamicPlacement(top, 20, DynamicPolicy{Policy: PolicySpread}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(pl) != 20 {
		t.Fatalf("placed %d", len(pl))
	}
	for _, p := range pl {
		if p < 0 || p >= top.NumPUs() {
			t.Fatalf("invalid PU %d", p)
		}
	}
}

func TestDynamicRunHasMigrationsAndIsSlower(t *testing.T) {
	top := topology.TinyFlat()
	m := comm.Ring(8, 1<<20, false)
	w := computeWorkload(8, m)
	w.Iterations = 100

	for i := range w.Threads {
		// Make the workload memory-bound so scheduler interference
		// shows up in the run time.
		w.Threads[i].MemoryTraffic = 64 << 20
		w.Threads[i].WorkingSet = 16 << 20
	}
	mp, err := treematch.Map(top, m, treematch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := Simulate(top, w, &Placement{ComputePU: mp.ComputePU, LocalAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := Simulate(top, w, &Placement{Dynamic: &DynamicPolicy{Policy: PolicySpread, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if bound.CPUMigrations != 0 {
		t.Errorf("bound run migrations = %g, want 0", bound.CPUMigrations)
	}
	if dyn.CPUMigrations == 0 {
		t.Error("dynamic run should migrate")
	}
	if bound.Seconds >= dyn.Seconds {
		t.Errorf("affinity %gs not faster than dynamic %gs", bound.Seconds, dyn.Seconds)
	}
	if bound.L3Misses >= dyn.L3Misses {
		t.Errorf("affinity misses %g not fewer than dynamic %g", bound.L3Misses, dyn.L3Misses)
	}
}

func TestDynamicDeterministicBySeed(t *testing.T) {
	top := topology.TinyFlat()
	d := DynamicPolicy{Policy: PolicySpread, Seed: 7}.withDefaults()
	a, _ := dynamicPlacement(top, 6, d)
	b, _ := dynamicPlacement(top, 6, d)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different placements")
		}
	}
	d2 := d
	d2.Seed = 8
	c, _ := dynamicPlacement(top, 6, d2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical placements")
	}
}

func TestBandwidthChannelLimitsStarPattern(t *testing.T) {
	// All threads pull from thread 0 (MKL-like first-touch on node 0):
	// the node-0 channel must saturate and set the iteration time.
	top := topology.TinyFlat()
	n := 8
	m := comm.NewMatrix(n)
	for i := 1; i < n; i++ {
		m.AddSym(0, i, 64<<20) // 64 MB per iteration per peer
	}
	w := computeWorkload(n, m)
	star, err := Simulate(top, w, identityPlacement(n))
	if err != nil {
		t.Fatal(err)
	}
	// 4 peers are on the remote node: >= 4*64MB over 8 GB/s.
	wantMin := 4.0 * 64 * (1 << 20) / (8e9) * float64(w.Iterations)
	if star.Seconds < wantMin {
		t.Errorf("star run %gs, want >= %gs (bandwidth-bound)", star.Seconds, wantMin)
	}
}

func TestPolicyFor(t *testing.T) {
	if PolicyFor(topology.SMP12E5()) != PolicyConsolidate {
		t.Error("SMP12E5 should consolidate (Linux 3.10)")
	}
	if PolicyFor(topology.SMP20E7()) != PolicySpread {
		t.Error("SMP20E7 should spread (Linux 2.6.32)")
	}
	if PolicyConsolidate.String() != "consolidate" || PolicySpread.String() != "spread" {
		t.Error("policy names wrong")
	}
	if SchedPolicy(9).String() == "" {
		t.Error("unknown policy should stringify")
	}
}

func TestResultConversions(t *testing.T) {
	r := &Result{Seconds: 2}
	if got := r.GFLOPS(4e9); got != 2 {
		t.Errorf("GFLOPS = %g", got)
	}
	if got := r.FPS(100); got != 50 {
		t.Errorf("FPS = %g", got)
	}
	zero := &Result{}
	if zero.GFLOPS(1) != 0 || zero.FPS(1) != 0 {
		t.Error("zero-time conversions should be 0")
	}
}

func TestGFLOPSScalesWithCores(t *testing.T) {
	// Pure compute workload must scale nearly linearly with cores when
	// each thread has its own core.
	top := topology.TinyFlat()
	mk := func(n int) *Result {
		w := computeWorkload(n, comm.NewMatrix(n))
		for i := range w.Threads {
			w.Threads[i].MemoryTraffic = 0
			w.Threads[i].ComputeCycles = 1e9 / float64(n)
		}
		pl := identityPlacement(n)
		r, err := Simulate(top, w, pl)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	t1 := mk(1).Seconds
	t8 := mk(8).Seconds
	speedup := t1 / t8
	if speedup < 7 || speedup > 9 {
		t.Errorf("8-core speedup = %g, want ~8", speedup)
	}
}

// Property: simulation results are deterministic and monotone in
// iteration count.
func TestSimulateDeterministicAndMonotone(t *testing.T) {
	top := topology.TinyFlat()
	f := func(seed int64) bool {
		m := comm.Random(4, 1<<16, seed)
		w := computeWorkload(4, m)
		pl := identityPlacement(4)
		a, err := Simulate(top, w, pl)
		if err != nil {
			return false
		}
		b, err := Simulate(top, w, pl)
		if err != nil {
			return false
		}
		if a.Seconds != b.Seconds || a.L3Misses != b.L3Misses {
			return false
		}
		w2 := computeWorkload(4, m)
		w2.Iterations = w.Iterations * 2
		c, err := Simulate(top, w2, pl)
		if err != nil {
			return false
		}
		return c.Seconds > a.Seconds && c.L3Misses >= a.L3Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: placing a heavy pair on the same socket never costs more
// than splitting it across NUMA nodes.
func TestLocalityMonotoneProperty(t *testing.T) {
	top := topology.TinyFlat()
	f := func(volRaw uint32) bool {
		vol := float64(volRaw%(1<<24)) + 1
		m := comm.NewMatrix(2)
		m.AddSym(0, 1, vol)
		w := computeWorkload(2, m)
		local, err := Simulate(top, w, &Placement{ComputePU: []int{0, 1}, LocalAlloc: true})
		if err != nil {
			return false
		}
		split, err := Simulate(top, w, &Placement{ComputePU: []int{0, 4}, LocalAlloc: true})
		if err != nil {
			return false
		}
		return local.Seconds <= split.Seconds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
