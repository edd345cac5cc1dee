package treematch

import (
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// Edge-case coverage for the mapping algorithm.

func singleCoreMachine() *topology.Topology {
	return topology.MustBuild(topology.Spec{
		Name: "uni", NUMAPerGroup: 1, SocketsPerNUMA: 1,
		CoresPerSocket: 1, PUsPerCore: 1,
		MemoryPerNUMA: 1 << 30,
	})
}

func TestMapOnSingleCoreMachine(t *testing.T) {
	top := singleCoreMachine()
	mp, err := Map(top, comm.NewMatrix(1), Options{ControlThreads: true})
	if err != nil {
		t.Fatal(err)
	}
	if mp.ComputePU[0] != 0 {
		t.Errorf("entity on PU %d", mp.ComputePU[0])
	}
	// Several entities on one core: heavy oversubscription.
	mp, err = Map(top, comm.Ring(5, 10, true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mp.Oversubscribed {
		t.Error("expected oversubscription")
	}
	for _, pu := range mp.ComputePU {
		if pu != 0 {
			t.Errorf("entity escaped the single PU: %d", pu)
		}
	}
}

func TestMapHugeOversubscription(t *testing.T) {
	top := topology.TinyFlat() // 8 cores
	m := comm.Clustered(64, 8, 100, 1)
	mp, err := Map(top, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	perCore := map[int]int{}
	for _, c := range mp.CoreOf {
		perCore[c]++
	}
	for c, n := range perCore {
		if n != 8 {
			t.Errorf("core %d carries %d entities, want 8", c, n)
		}
	}
	// The 8 clusters of 8 should land one per core.
	for cl := 0; cl < 8; cl++ {
		base := mp.CoreOf[cl*8]
		for e := cl * 8; e < (cl+1)*8; e++ {
			if mp.CoreOf[e] != base {
				t.Errorf("cluster %d split across cores", cl)
			}
		}
	}
}

func TestMapZeroMatrixIsStillValid(t *testing.T) {
	// Entities that never communicate must still be placed one per
	// core.
	top := topology.TinyFlat()
	mp, err := Map(top, comm.NewMatrix(8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, pu := range mp.ComputePU {
		if seen[pu] {
			t.Fatal("PU reused")
		}
		seen[pu] = true
	}
}

func TestMapAsymmetricMatrixSymmetrizes(t *testing.T) {
	// Only one direction carries volume: mapping must still cluster the
	// pair.
	top := topology.TinyFlat()
	m := comm.NewMatrix(4)
	m.Set(0, 3, 1e6) // one-way
	mp, err := Map(top, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pus := top.PUs()
	l0 := pus[mp.ComputePU[0]].AncestorOfType(topology.NUMANode)
	l3 := pus[mp.ComputePU[3]].AncestorOfType(topology.NUMANode)
	if l0 != l3 {
		t.Error("one-way heavy pair split across NUMA nodes")
	}
}

func TestHeaviestTasksOrdering(t *testing.T) {
	m := comm.NewMatrix(4)
	m.AddSym(0, 1, 10)
	m.AddSym(2, 3, 100)
	got := heaviestTasks(symOf(m), 2)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("heaviest = %v, want [2 3]", got)
	}
	if got := heaviestTasks(symOf(m), 10); len(got) != 4 {
		t.Errorf("over-count should clamp: %v", got)
	}
}

func TestCoreAritiesFallback(t *testing.T) {
	top := singleCoreMachine()
	ar := coreArities(top)
	prod := 1
	for _, a := range ar {
		prod *= a
	}
	if prod != 1 {
		t.Errorf("arities %v product %d, want 1", ar, prod)
	}
}

func TestForEachSubsetOfSize(t *testing.T) {
	var got []int
	forEachSubsetOfSize(0b1011, 2, func(s int) { got = append(got, s) })
	want := map[int]bool{0b0011: true, 0b1001: true, 0b1010: true}
	if len(got) != len(want) {
		t.Fatalf("subsets = %d, want %d", len(got), len(want))
	}
	for _, s := range got {
		if !want[s] {
			t.Errorf("unexpected subset %b", s)
		}
	}
	// size 0 yields the empty subset once.
	count := 0
	forEachSubsetOfSize(0b111, 0, func(s int) {
		count++
		if s != 0 {
			t.Errorf("empty subset = %b", s)
		}
	})
	if count != 1 {
		t.Errorf("empty subset visited %d times", count)
	}
	// size larger than popcount yields nothing.
	forEachSubsetOfSize(0b11, 3, func(int) { t.Error("impossible subset visited") })
}

func TestMapZeroVolumeControlStillPlaced(t *testing.T) {
	// Tasks with zero communication get control entities with the
	// minimum pull volume; mapping must not fail.
	top := topology.TinyFlat()
	mp, err := Map(top, comm.NewMatrix(6), Options{ControlThreads: true})
	if err != nil {
		t.Fatal(err)
	}
	ctl := 0
	for _, pu := range mp.ControlPU {
		if pu >= 0 {
			ctl++
		}
	}
	if ctl != 2 {
		t.Errorf("control placements = %d, want 2", ctl)
	}
}
