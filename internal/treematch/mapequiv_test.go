package treematch

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// equivMatrix draws an asymmetric order-n matrix: a few clusters with
// heavy traffic, sparse light noise, some silent tasks. Integer volumes
// are small so ties abound (the tie rules must agree too); fractional
// ones make every sum round (the summation order must agree too).
func equivMatrix(rng *rand.Rand, n int, fractional bool) *comm.Matrix {
	m := comm.NewMatrix(n)
	vol := func(scale int) float64 {
		if fractional {
			return rng.Float64() * float64(scale)
		}
		return float64(1 + rng.Intn(scale))
	}
	size := 1 + rng.Intn(8)
	density := []float64{0.02, 0.1, 0.4}[rng.Intn(3)]
	for i := 0; i < n; i++ {
		if rng.Intn(10) == 0 {
			continue // a silent task
		}
		for j := 0; j < n; j++ {
			switch {
			case i == j:
			case i/size == j/size && rng.Intn(3) > 0:
				m.Set(i, j, vol(1000))
			case rng.Float64() < density:
				m.Set(i, j, vol(10))
			}
		}
	}
	return m
}

// sameMapping fails unless got and want bind every task identically.
func sameMapping(got, want *Mapping) error {
	if got.Mode != want.Mode || got.Oversubscribed != want.Oversubscribed {
		return fmt.Errorf("mode/oversub %v/%v, reference %v/%v", got.Mode, got.Oversubscribed, want.Mode, want.Oversubscribed)
	}
	for i := range want.ComputePU {
		if got.ComputePU[i] != want.ComputePU[i] || got.ControlPU[i] != want.ControlPU[i] || got.CoreOf[i] != want.CoreOf[i] {
			return fmt.Errorf("task %d at (%d,%d,%d), reference (%d,%d,%d)", i,
				got.ComputePU[i], got.ControlPU[i], got.CoreOf[i],
				want.ComputePU[i], want.ControlPU[i], want.CoreOf[i])
		}
	}
	return nil
}

// equivOrders lists the orders the sweep maps on a machine: every order
// up to 64 on machines of at most 64 PUs (up to 8 on larger ones), then
// a stride up to twice the PU count, always including the core and PU
// counts and their neighbours. On fleet1k every order pads to 1024
// leaves, which the dense reference pays in full, so it gets a few
// orders only; and the reference needs 8·n² bytes per pipeline matrix,
// so orders stop at 1100.
func equivOrders(top *topology.Topology) []int {
	limit := min(2*top.NumPUs(), 1100)
	seen := map[int]bool{}
	var out []int
	add := func(n int) {
		if n >= 1 && n <= limit && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	every, strides := 64, 24
	if top.NumPUs() > 64 {
		every = 8
	}
	if top.NumPUs() > 256 {
		every, strides = 3, 3
	}
	for n := 1; n <= every; n++ {
		add(n)
	}
	for n := every + 1; n <= limit; n += max(7, limit/strides) {
		add(n)
	}
	for _, n := range []int{top.NumCores(), top.NumPUs(), 2 * top.NumPUs()} {
		add(n - 1)
		add(n)
		add(n + 1)
	}
	return out
}

// TestMapMatchesReference: on every machine, over orders from one task
// to twice the PU count, with control threads on and off, and integer
// and fractional volumes, the CSR engine binds every task exactly where
// the dense reference pipeline does.
func TestMapMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, name := range topology.MachineNames() {
		top, err := topology.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range equivOrders(top) {
			fractional := rng.Intn(2) == 0
			m := equivMatrix(rng, n, fractional)
			for _, opt := range []Options{{}, {ControlThreads: true}} {
				want, err := refMap(top, m, opt, exhaustiveLimit)
				if err != nil {
					t.Fatalf("%s n=%d %+v: reference: %v", name, n, opt, err)
				}
				for _, a := range []comm.Affinity{m, comm.SparseFromMatrix(m)} {
					got, err := Map(top, a, opt)
					if err != nil {
						t.Fatalf("%s n=%d %+v: Map: %v", name, n, opt, err)
					}
					if err := sameMapping(got, want); err != nil {
						t.Fatalf("%s n=%d fractional=%v %+v %T: %v", name, n, fractional, opt, a, err)
					}
				}
			}
		}
	}
}

// FuzzMapMatchesReference maps a fuzzed matrix on a fuzzed small
// machine with fuzzed options and demands the reference's bindings.
func FuzzMapMatchesReference(f *testing.F) {
	f.Add([]byte{0, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{1, 40, 3, 200, 0, 0, 13, 7, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{2, 17, 1, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{3, 70, 2, 128, 64, 32, 16, 8, 4, 2, 1})
	machines := []*topology.Topology{topology.TinyFlat(), topology.TinyHT(), topology.Fig2Machine(), topology.SMP12E5()}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		top := machines[int(data[0])%len(machines)]
		n := 1 + int(data[1])%(2*top.NumPUs())
		opt := Options{ControlThreads: data[2]&1 != 0}
		limit := exhaustiveLimit
		if data[2]&4 != 0 {
			limit = 1 // greedy everywhere
		}
		m := comm.NewMatrix(n)
		fr := data[2]&8 != 0
		for k, b := range data[3:] {
			i, j := (k*7+int(b))%n, (k*13+int(b)/3)%n
			v := float64(b)
			if fr {
				v = float64(b) / 7
			}
			m.Add(i, j, v)
		}
		want, err := refMap(top, m, opt, limit)
		if err != nil {
			t.Fatal(err)
		}
		// Map with the exhaustive engine's limit as a parameter.
		ws := getWorkspace()
		defer putWorkspace(ws)
		if err := ws.sym.symmetrize(&ws.lvl[0], comm.SparseFromMatrix(m), nil, nil, true); err != nil {
			t.Fatal(err)
		}
		got, err := mapLevels(top, ws, opt, limit)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameMapping(got, want); err != nil {
			t.Fatalf("n=%d %+v: %v", n, opt, err)
		}
	})
}

// TestMapRefusesInvalidVolumes: NaN, ±Inf and negative cells are refused
// with the cell named; -0 counts as zero.
func TestMapRefusesInvalidVolumes(t *testing.T) {
	top := topology.Fig2Machine()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5} {
		m := comm.Clustered(32, 8, 1000, 10)
		m.Set(3, 7, v)
		for _, a := range []comm.Affinity{m, comm.SparseFromMatrix(m)} {
			if _, err := Map(top, a, Options{}); err == nil {
				t.Errorf("%v at (3,7), %T: mapped", v, a)
			} else if want := "cell (3,7)"; !strings.Contains(err.Error(), want) {
				t.Errorf("%v: error %q does not name %s", v, err, want)
			}
			if _, err := MapAffinity(top, a, Options{PartitionThreshold: 8}); err == nil {
				t.Errorf("%v at (3,7), %T: partitioned path mapped", v, a)
			}
		}
	}
	zero := comm.Clustered(32, 8, 1000, 10)
	zero.Set(3, 7, 0)
	negZero := zero.Clone()
	negZero.Set(3, 7, math.Copysign(0, -1))
	negZero.Set(3, 3, math.Copysign(0, -1))
	want, err := Map(top, zero, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Map(top, negZero, Options{})
	if err != nil {
		t.Fatalf("-0 refused: %v", err)
	}
	if err := sameMapping(got, want); err != nil {
		t.Fatalf("-0 mapped unlike +0: %v", err)
	}
}
