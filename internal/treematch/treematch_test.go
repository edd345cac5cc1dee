package treematch

import (
	"testing"
	"testing/quick"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

func TestGroupProcessesValidation(t *testing.T) {
	m := comm.NewMatrix(4)
	if _, err := GroupProcesses(m, 0, 12); err == nil {
		t.Error("accepted arity 0")
	}
	if _, err := GroupProcesses(m, 3, 12); err == nil {
		t.Error("accepted non-divisible arity")
	}
}

func TestGroupProcessesTrivialArities(t *testing.T) {
	m := comm.Random(4, 10, 1)
	g1, err := GroupProcesses(m, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(g1) != 4 || len(g1[0]) != 1 {
		t.Errorf("arity-1 groups = %v", g1)
	}
	gn, err := GroupProcesses(m, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(gn) != 1 || len(gn[0]) != 4 {
		t.Errorf("arity-n groups = %v", gn)
	}
}

func TestGroupProcessesFindsClusters(t *testing.T) {
	// 8 entities in 4 obvious pairs: (0,1), (2,3), (4,5), (6,7).
	m := comm.NewMatrix(8)
	for i := 0; i < 8; i += 2 {
		m.AddSym(i, i+1, 100)
	}
	m.AddSym(0, 7, 1) // noise
	for _, engine := range []struct {
		name  string
		limit int
	}{{"exhaustive", 12}, {"greedy", 1}} {
		groups, err := GroupProcesses(m, 2, engine.limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) != 4 {
			t.Fatalf("%s: %d groups", engine.name, len(groups))
		}
		for _, g := range groups {
			if g[1] != g[0]+1 || g[0]%2 != 0 {
				t.Errorf("%s: unexpected group %v", engine.name, g)
			}
		}
	}
}

func TestExhaustiveAtLeastAsGoodAsGreedy(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		m := comm.Random(8, 100, seed)
		opt, err := GroupProcesses(m, 2, 12)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := GroupProcesses(m, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		vOpt := IntraGroupVolume(m, opt)
		vGreedy := IntraGroupVolume(m, greedy)
		if vOpt < vGreedy-1e-9 {
			t.Errorf("seed %d: exhaustive %g < greedy %g", seed, vOpt, vGreedy)
		}
	}
}

func TestExhaustiveOptimalSmallCase(t *testing.T) {
	// 4 entities, arity 2. Weights chosen so the greedy heaviest-pair
	// choice (0,1)=10 forces (2,3)=1, total 11, while the optimal
	// pairing (0,2)+(1,3) = 9+8 = 17.
	m := comm.NewMatrix(4)
	m.AddSym(0, 1, 10)
	m.AddSym(0, 2, 9)
	m.AddSym(1, 3, 8)
	m.AddSym(2, 3, 1)
	groups, err := GroupProcesses(m, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if got := IntraGroupVolume(m, groups); got != 2*(9+8) {
		t.Errorf("exhaustive volume = %g, want %g (groups %v)", got, 2.0*(9+8), groups)
	}
	greedy, err := GroupProcesses(m, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := IntraGroupVolume(m, greedy); got != 2*(10+1) {
		t.Errorf("greedy volume = %g, want %g (groups %v)", got, 2.0*(10+1), greedy)
	}
}

func TestGroupsAreDeterministicAndNormalized(t *testing.T) {
	m := comm.Random(12, 50, 7)
	a, _ := GroupProcesses(m, 3, 1)
	b, _ := GroupProcesses(m, 3, 1)
	if len(a) != len(b) {
		t.Fatal("non-deterministic group count")
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("non-deterministic group sizes")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("non-deterministic groups")
			}
		}
		for j := 1; j < len(a[i]); j++ {
			if a[i][j-1] >= a[i][j] {
				t.Errorf("group %v not sorted", a[i])
			}
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i-1][0] >= a[i][0] {
			t.Error("groups not ordered by smallest member")
		}
	}
}

// Property: every grouping is a partition — all entities exactly once.
func TestGroupProcessesPartitionProperty(t *testing.T) {
	f := func(seed int64, arityPick uint8) bool {
		arities := []int{2, 3, 4, 6}
		a := arities[int(arityPick)%len(arities)]
		m := comm.Random(12, 100, seed)
		groups, err := GroupProcesses(m, a, 6) // mixes engines by size
		if err != nil {
			return false
		}
		seen := make([]bool, 12)
		for _, g := range groups {
			if len(g) != a {
				return false
			}
			for _, e := range g {
				if e < 0 || e >= 12 || seen[e] {
					return false
				}
				seen[e] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMapRejectsEmptyMatrix(t *testing.T) {
	if _, err := Map(topology.TinyFlat(), comm.NewMatrix(0), Options{}); err == nil {
		t.Error("accepted empty matrix")
	}
}

func TestMapPipelineOnTinyFlat(t *testing.T) {
	// 8 tasks in a pipeline on 2 NUMA x 4 cores: the mapping must keep
	// consecutive tasks together, cutting the chain at most once across
	// NUMA nodes.
	top := topology.TinyFlat()
	m := comm.Ring(8, 1000, false)
	mp, err := Map(top, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.ComputePU) != 8 {
		t.Fatalf("placed %d entities", len(mp.ComputePU))
	}
	cost, err := Cost(top, m, mp.ComputePU)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal for a chain: 3 links at distance 2 (same NUMA), 3 links
	// at distance 2, 1 link across NUMA (distance 6 in this tree:
	// core->l2? arities...). Just require it beats scatter placement.
	scatter, _ := Place(top, 8, StrategyScatter)
	scCost, _ := Cost(top, m, scatter)
	if cost >= scCost {
		t.Errorf("treematch cost %g >= scatter cost %g", cost, scCost)
	}
	_, crossTM, _ := Quality(top, m, mp.ComputePU)
	_, crossSC, _ := Quality(top, m, scatter)
	if crossTM > crossSC {
		t.Errorf("treematch cross-NUMA %g > scatter %g", crossTM, crossSC)
	}
	// A chain of 8 split over two 4-core nodes crosses NUMA on exactly
	// one link when mapped optimally.
	if crossTM > 2000 {
		t.Errorf("cross-NUMA volume = %g, want at most one cut link (2000)", crossTM)
	}
}

func TestMapClusteredMatchesNUMANodes(t *testing.T) {
	// Two heavy clusters of 4 on a 2-NUMA machine: each cluster must
	// land entirely on one NUMA node.
	top := topology.TinyFlat()
	m := comm.Clustered(8, 2, 1000, 1)
	mp, err := Map(top, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pus := top.PUs()
	nodeOf := func(ent int) *topology.Object {
		return pus[mp.ComputePU[ent]].AncestorOfType(topology.NUMANode)
	}
	for c := 0; c < 2; c++ {
		base := nodeOf(c * 4)
		for e := c * 4; e < (c+1)*4; e++ {
			if nodeOf(e) != base {
				t.Errorf("cluster %d split across NUMA nodes", c)
			}
		}
	}
	if nodeOf(0) == nodeOf(4) {
		t.Error("both clusters on the same NUMA node")
	}
}

func TestMapHyperthreadControlMode(t *testing.T) {
	top := topology.TinyHT() // 4 cores, 8 PUs, hyperthreaded
	m := comm.Ring(4, 100, true)
	mp, err := Map(top, m, Options{ControlThreads: true})
	if err != nil {
		t.Fatal(err)
	}
	if mp.Mode != ControlHyperthread {
		t.Fatalf("mode = %v, want hyperthread-sibling", mp.Mode)
	}
	pus := top.PUs()
	for e := 0; e < 4; e++ {
		cpu := mp.ComputePU[e]
		ctl := mp.ControlPU[e]
		if ctl == -1 {
			t.Fatalf("entity %d control thread unmapped", e)
		}
		if pus[cpu].Parent != pus[ctl].Parent {
			t.Errorf("entity %d: compute and control not hyperthread siblings", e)
		}
		if cpu == ctl {
			t.Errorf("entity %d: compute and control share a PU", e)
		}
	}
	// Compute entities all get distinct cores.
	seen := map[int]bool{}
	for _, c := range mp.CoreOf {
		if seen[c] {
			t.Error("two compute entities share a core")
		}
		seen[c] = true
	}
}

func TestMapSpareCoreControlMode(t *testing.T) {
	// 6 tasks on an 8-core non-HT machine: 2 spare cores receive the
	// control threads of the 2 heaviest tasks (Fig. 2 behaviour).
	top := topology.TinyFlat()
	m := comm.Ring(6, 100, false)
	m.AddSym(0, 5, 500) // make tasks 0 and 5 the heaviest
	mp, err := Map(top, m, Options{ControlThreads: true})
	if err != nil {
		t.Fatal(err)
	}
	if mp.Mode != ControlSpareCores {
		t.Fatalf("mode = %v, want spare-cores", mp.Mode)
	}
	mapped := 0
	usedCores := map[int]bool{}
	for _, c := range mp.CoreOf {
		usedCores[c] = true
	}
	for e, ctl := range mp.ControlPU {
		if ctl == -1 {
			continue
		}
		mapped++
		ctlCore := top.PUs()[ctl].AncestorOfType(topology.Core).LogicalIndex
		if usedCores[ctlCore] {
			t.Errorf("entity %d control thread shares core %d with a compute thread", e, ctlCore)
		}
	}
	if mapped != 2 {
		t.Errorf("%d control threads mapped, want 2", mapped)
	}
	if mp.ControlPU[0] == -1 || mp.ControlPU[5] == -1 {
		t.Error("heaviest tasks 0 and 5 should get mapped control threads")
	}
}

func TestMapExactFitHasNoControlMapping(t *testing.T) {
	top := topology.TinyFlat()
	m := comm.Ring(8, 100, false)
	mp, err := Map(top, m, Options{ControlThreads: true})
	if err != nil {
		t.Fatal(err)
	}
	if mp.Mode != ControlNone {
		t.Fatalf("mode = %v, want none (no spare capacity)", mp.Mode)
	}
	for e, ctl := range mp.ControlPU {
		if ctl != -1 {
			t.Errorf("entity %d has control PU %d on a full machine", e, ctl)
		}
	}
}

func TestMapOversubscription(t *testing.T) {
	// 16 tasks on 8 cores: a virtual level is added; each core carries
	// exactly two tasks and heavy pairs share a core.
	top := topology.TinyFlat()
	m := comm.NewMatrix(16)
	for i := 0; i < 16; i += 2 {
		m.AddSym(i, i+1, 1000)
	}
	mp, err := Map(top, m, Options{ControlThreads: true})
	if err != nil {
		t.Fatal(err)
	}
	if !mp.Oversubscribed {
		t.Fatal("mapping should be oversubscribed")
	}
	if mp.Mode != ControlNone {
		t.Error("oversubscribed mapping cannot reserve control resources")
	}
	perCore := map[int]int{}
	for _, c := range mp.CoreOf {
		perCore[c]++
	}
	for c, cnt := range perCore {
		if cnt != 2 {
			t.Errorf("core %d carries %d tasks, want 2", c, cnt)
		}
	}
	for i := 0; i < 16; i += 2 {
		if mp.CoreOf[i] != mp.CoreOf[i+1] {
			t.Errorf("heavy pair (%d,%d) split across cores %d and %d",
				i, i+1, mp.CoreOf[i], mp.CoreOf[i+1])
		}
	}
}

func TestMapSingleEntity(t *testing.T) {
	top := topology.TinyHT()
	m := comm.NewMatrix(1)
	mp, err := Map(top, m, Options{ControlThreads: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.ComputePU) != 1 {
		t.Fatalf("placed %d", len(mp.ComputePU))
	}
	if mp.Mode != ControlHyperthread {
		t.Errorf("mode = %v", mp.Mode)
	}
}

func TestMapOnPaperMachines(t *testing.T) {
	// Smoke test at paper scale: the 30-task tracking-like DFG on both
	// testbed topologies.
	m := comm.Ring(30, 1<<20, false)
	for _, top := range []*topology.Topology{topology.SMP12E5(), topology.SMP20E7()} {
		mp, err := Map(top, m, Options{ControlThreads: true})
		if err != nil {
			t.Fatalf("%s: %v", top.Attrs.Name, err)
		}
		seenCore := map[int]bool{}
		for _, c := range mp.CoreOf {
			if seenCore[c] {
				t.Fatalf("%s: core reuse without oversubscription", top.Attrs.Name)
			}
			seenCore[c] = true
		}
		tmCost, _ := Cost(top, m, mp.ComputePU)
		sc, _ := Place(top, 30, StrategyScatter)
		scCost, _ := Cost(top, m, sc)
		if tmCost >= scCost {
			t.Errorf("%s: treematch %g not better than scatter %g", top.Attrs.Name, tmCost, scCost)
		}
	}
}

func TestPlaceStrategies(t *testing.T) {
	top := topology.TinyHT() // 2 NUMA x 2 cores x 2 PUs
	pus := top.PUs()

	compact, err := Place(top, 4, StrategyCompact)
	if err != nil {
		t.Fatal(err)
	}
	// Compact uses PUs 0,1,2,3: first two cores, HT siblings filled.
	if pus[compact[0]].Parent != pus[compact[1]].Parent {
		t.Error("compact should fill hyperthread siblings first")
	}

	cores, err := Place(top, 4, StrategyCompactCores)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*topology.Object]bool{}
	for _, p := range cores {
		core := pus[p].Parent
		if seen[core] {
			t.Error("compact-cores reused a core before wrapping")
		}
		seen[core] = true
	}

	scatter, err := Place(top, 2, StrategyScatter)
	if err != nil {
		t.Fatal(err)
	}
	n0 := pus[scatter[0]].AncestorOfType(topology.NUMANode)
	n1 := pus[scatter[1]].AncestorOfType(topology.NUMANode)
	if n0 == n1 {
		t.Error("scatter should spread across NUMA nodes")
	}

	rr, err := Place(top, 3, StrategyRoundRobinPU)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr) != 3 {
		t.Fatal("round-robin length wrong")
	}

	if _, err := Place(top, -1, StrategyCompact); err == nil {
		t.Error("accepted negative count")
	}
	if _, err := Place(top, 2, Strategy(99)); err == nil {
		t.Error("accepted unknown strategy")
	}
}

func TestPlaceWrapsWhenOversubscribed(t *testing.T) {
	top := topology.TinyFlat() // 8 PUs
	for _, s := range []Strategy{StrategyCompact, StrategyCompactCores, StrategyScatter, StrategyRoundRobinPU} {
		pl, err := Place(top, 20, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		for i, p := range pl {
			if p < 0 || p >= top.NumPUs() {
				t.Fatalf("%v: entity %d -> invalid PU %d", s, i, p)
			}
		}
	}
}

func TestCostValidation(t *testing.T) {
	top := topology.TinyFlat()
	m := comm.Ring(4, 10, false)
	if _, err := Cost(top, m, []int{0, 1}); err == nil {
		t.Error("accepted short placement")
	}
	if _, err := Cost(top, m, []int{0, 1, 2, 99}); err == nil {
		t.Error("accepted invalid PU index")
	}
	if _, _, err := Quality(top, m, []int{0}); err == nil {
		t.Error("Quality accepted short placement")
	}
}

func TestControlModeAndStrategyStrings(t *testing.T) {
	if ControlHyperthread.String() != "hyperthread-sibling" {
		t.Error("control mode name wrong")
	}
	if ControlMode(9).String() == "" || Strategy(9).String() == "" {
		t.Error("out-of-range strings should not be empty")
	}
	if StrategyScatter.String() != "scatter" {
		t.Error("strategy name wrong")
	}
}

// Property: Map always produces valid PU indexes and, without
// oversubscription, at most one compute entity per core.
func TestMapValidityProperty(t *testing.T) {
	top := topology.TinyFlat()
	f := func(seed int64, sz uint8) bool {
		n := 1 + int(sz)%8
		m := comm.Random(n, 100, seed)
		mp, err := Map(top, m, Options{ControlThreads: seed%2 == 0})
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, pu := range mp.ComputePU {
			if pu < 0 || pu >= top.NumPUs() {
				return false
			}
			if seen[pu] {
				return false
			}
			seen[pu] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: on a clustered matrix, the TreeMatch cost never exceeds the
// cost of the oblivious strategies.
func TestMapBeatsObliviousOnClusteredProperty(t *testing.T) {
	top := topology.TinyFlat()
	f := func(seed int64) bool {
		m := comm.Clustered(8, 2, 1000, 1)
		// Permute entities so clusters are not index-contiguous.
		perm := permFromSeed(seed, 8)
		pm, err := m.Permuted(perm)
		if err != nil {
			return false
		}
		mp, err := Map(top, pm, Options{})
		if err != nil {
			return false
		}
		tm, err := Cost(top, pm, mp.ComputePU)
		if err != nil {
			return false
		}
		for _, s := range []Strategy{StrategyCompactCores, StrategyScatter} {
			pl, err := Place(top, 8, s)
			if err != nil {
				return false
			}
			c, err := Cost(top, pm, pl)
			if err != nil {
				return false
			}
			if tm > c+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func permFromSeed(seed int64, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	x := uint64(seed)*2654435761 + 1
	for i := n - 1; i > 0; i-- {
		x = x*6364136223846793005 + 1442695040888963407
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}
