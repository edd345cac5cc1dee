package treematch

import (
	"math"
	"math/rand"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// Mapper oracles: properties of the mapping that hold for any correct
// implementation, checked against closed forms rather than against a
// reference implementation.

// socketCores is the number of cores under one socket of top.
func socketCores(t *testing.T, top *topology.Topology) int {
	t.Helper()
	sockets := top.Objects(topology.Socket)
	if len(sockets) == 0 {
		t.Fatalf("%s has no sockets", top.Attrs.Name)
	}
	return top.NumCores() / len(sockets)
}

// minCoreHops is the hop distance between the first PUs of two distinct
// cores of one socket: the least any pair of tasks on distinct cores can
// cost per unit of volume.
func minCoreHops(top *topology.Topology) float64 {
	cores := top.Cores()
	a, b := cores[0].Children[0], cores[1].Children[0]
	ca := topology.CommonAncestor(a, b)
	return float64(a.Depth() + b.Depth() - 2*ca.Depth())
}

// TestOraclePlantedCliques plants cliques sized to a socket's core count
// under a random relabelling, one task per core. The closed-form
// optimum puts every clique on one socket, where each pair costs the
// least inter-core distance; Map and the partitioned MapAffinity must
// both reach it exactly.
func TestOraclePlantedCliques(t *testing.T) {
	for _, name := range []string{"smp12e5", "smp20e7", "fig2"} {
		top, err := topology.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		size, n := socketCores(t, top), top.NumCores()
		rng := rand.New(rand.NewSource(int64(n)))
		label := rng.Perm(n)
		m := comm.NewMatrix(n)
		const w = 1000
		for c := 0; c < n; c += size {
			for x := c; x < c+size; x++ {
				for y := x + 1; y < c+size; y++ {
					m.AddSym(label[x], label[y], w)
				}
			}
		}
		pairs := float64(n / size * size * (size - 1) / 2)
		optimum := pairs * 2 * w * minCoreHops(top)
		for _, run := range []struct {
			what string
			mp   func() (*Mapping, error)
		}{
			{"Map", func() (*Mapping, error) { return Map(top, m, Options{}) }},
			{"MapAffinity partitioned", func() (*Mapping, error) {
				return MapAffinity(top, comm.SparseFromMatrix(m), Options{PartitionThreshold: size})
			}},
		} {
			mp, err := run.mp()
			if err != nil {
				t.Fatalf("%s %s: %v", name, run.what, err)
			}
			cost, err := Cost(top, m, mp.ComputePU)
			if err != nil {
				t.Fatal(err)
			}
			if cost != optimum {
				t.Errorf("%s %s: cost %v, optimum %v", name, run.what, cost, optimum)
			}
		}
	}
}

// oracleMatrix is a tie-free input: every cell of a dense-ish matrix a
// distinct random fraction.
func oracleMatrix(rng *rand.Rand, n int) *comm.Matrix {
	m := comm.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Intn(3) == 0 {
				m.Set(i, j, rng.Float64()*1000)
			}
		}
	}
	return m
}

// TestOracleScalingByPowersOfTwo: scaling every volume by 2^k is exact
// in floating point, so it must change no decision, and scale the cost
// by exactly 2^k.
func TestOracleScalingByPowersOfTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, name := range topology.MachineNames() {
		top, _ := topology.ByName(name)
		n := 1 + rng.Intn(min(2*top.NumPUs(), 200))
		m := oracleMatrix(rng, n)
		want, err := Map(top, m, Options{ControlThreads: true})
		if err != nil {
			t.Fatal(err)
		}
		wantCost, _ := Cost(top, m, want.ComputePU)
		for _, k := range []int{-7, 1, 20} {
			scaled := comm.NewMatrix(n)
			m.ForEach(func(i, j int, v float64) { scaled.Set(i, j, math.Ldexp(v, k)) })
			got, err := Map(top, scaled, Options{ControlThreads: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := sameMapping(got, want); err != nil {
				t.Fatalf("%s n=%d ×2^%d: %v", name, n, k, err)
			}
			if cost, _ := Cost(top, scaled, got.ComputePU); cost != math.Ldexp(wantCost, k) {
				t.Fatalf("%s n=%d ×2^%d: cost %v, want %v", name, n, k, cost, math.Ldexp(wantCost, k))
			}
		}
	}
}

// TestOracleSilentTaskMovesNothing: appending a task that talks to
// nobody fills a slot padding would have held, so every other task
// keeps its binding (one task per core, control threads off).
func TestOracleSilentTaskMovesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range topology.MachineNames() {
		top, _ := topology.ByName(name)
		if top.NumCores() < 2 {
			continue
		}
		for trial := 0; trial < 4; trial++ {
			n := 1 + rng.Intn(min(top.NumCores()-1, 200))
			m := oracleMatrix(rng, n)
			ext := comm.NewMatrix(n + 1)
			m.ForEach(func(i, j int, v float64) { ext.Set(i, j, v) })
			want, err := Map(top, m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Map(top, ext, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if got.ComputePU[i] != want.ComputePU[i] {
					t.Fatalf("%s n=%d: a silent task moved task %d from PU %d to %d", name, n, i, want.ComputePU[i], got.ComputePU[i])
				}
			}
		}
	}
}

// TestOracleRelabellingKeepsCost: on a tie-free input, renumbering the
// tasks renumbers the decisions, so the cost is the same up to the
// rounding of sums taken in another order. One task per core at most:
// tasks oversubscribing a core take its PUs in label order, which is
// not label-free.
func TestOracleRelabellingKeepsCost(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, name := range topology.MachineNames() {
		top, _ := topology.ByName(name)
		for trial := 0; trial < 4; trial++ {
			n := 2 + rng.Intn(min(top.NumCores()-1, 200))
			m := oracleMatrix(rng, n)
			perm := rng.Perm(n)
			relabelled, err := m.Permuted(perm)
			if err != nil {
				t.Fatal(err)
			}
			costOf := func(a *comm.Matrix) float64 {
				mp, err := Map(top, a, Options{})
				if err != nil {
					t.Fatal(err)
				}
				c, _ := Cost(top, a, mp.ComputePU)
				return c
			}
			want, got := costOf(m), costOf(relabelled)
			if math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("%s n=%d: relabelled cost %v, original %v", name, n, got, want)
			}
		}
	}
}
