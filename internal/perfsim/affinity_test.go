package perfsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// gainWindow fills an order-n window, dense or sparse, with about k
// nonzeros of volume up to maxVol: asymmetric pairs, pairs whose mirror
// cell is zero, and diagonal cells.
func gainWindow(rng *rand.Rand, n, k int, maxVol float64, dense bool) comm.Affinity {
	var a comm.Affinity = comm.NewSparse(n)
	if dense {
		a = comm.NewMatrix(n)
	}
	for ; k > 0; k-- {
		i, j := rng.Intn(n), rng.Intn(n)
		a.Set(i, j, 1+math.Floor(rng.Float64()*maxVol))
		if rng.Intn(3) == 0 { // a diagonal cell now and then
			a.Set(i, i, 1+rng.Float64()*maxVol)
		}
	}
	return a
}

// moveSome copies from and moves each task to a random PU with
// probability p.
func moveSome(rng *rand.Rand, from []int, pus int, p float64) []int {
	to := append([]int(nil), from...)
	for i := range to {
		if rng.Float64() < p {
			to[i] = rng.Intn(pus)
		}
	}
	return to
}

// checkGain holds CommSecondsGain to the two-walk difference: equal to
// 1e-9 relative, with an absolute floor of 1e-12 of the two sides'
// total (their difference may cancel to nothing), and exactly 0 for
// identical bindings.
func checkGain(t *testing.T, top *topology.Topology, a comm.Affinity, from, to []int) {
	t.Helper()
	before, err := CommSeconds(top, a, from)
	if err != nil {
		t.Fatal(err)
	}
	after, err := CommSeconds(top, a, to)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CommSecondsGain(top, a, from, to)
	if err != nil {
		t.Fatal(err)
	}
	want := before - after
	if tol := 1e-9*math.Abs(want) + 1e-12*(before+after); math.Abs(got-want) > tol {
		t.Fatalf("%s, order %d: gain %g, CommSeconds difference %g (%g − %g)", top.Attrs.Name, a.Order(), got, want, before, after)
	}
	if same, err := CommSecondsGain(top, a, from, from); same != 0 || err != nil {
		t.Fatalf("%s, order %d: identical bindings gain %g (%v), want exactly 0", top.Attrs.Name, a.Order(), same, err)
	}
}

// TestCommSecondsGainMatchesDifference: on fig2, smp20e7 and fleet1k,
// over dense and sparse windows and bindings moving from one task to
// all of them, the one-walk moved-pair gain equals CommSeconds(from) −
// CommSeconds(to); and an invalid binding on either side is refused
// with the error CommSeconds gives it.
func TestCommSecondsGainMatchesDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, name := range []string{"fig2", "smp20e7", "fleet1k"} {
		top, err := topology.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pus := top.NumPUs()
		for _, n := range []int{1, 2, 17, pus, 2 * pus} {
			for _, dense := range []bool{true, false} {
				if dense && n > 512 {
					continue
				}
				a := gainWindow(rng, n, 4*n, 1<<20, dense)
				from := make([]int, n)
				for i := range from {
					from[i] = rng.Intn(pus)
				}
				for _, p := range []float64{0, 0.01, 0.1, 1} {
					checkGain(t, top, a, from, moveSome(rng, from, pus, p))
				}
			}
		}

		a := gainWindow(rng, 8, 20, 100, false)
		ok := make([]int, 8)
		for _, bad := range [][]int{{0, 1}, {0, 1, 2, 3, 4, 5, 6, pus}, {-1, 0, 0, 0, 0, 0, 0, 0}} {
			_, wantErr := CommSeconds(top, a, bad)
			for _, pair := range [][2][]int{{bad, ok}, {ok, bad}, {bad, bad}} {
				if _, err := CommSecondsGain(top, a, pair[0], pair[1]); fmt.Sprint(err) != fmt.Sprint(wantErr) || err == nil {
					t.Errorf("%s: binding %v: gain err %v, CommSeconds err %v", name, bad, err, wantErr)
				}
			}
		}
	}
}

// FuzzCommSecondsGain holds the moved-pair gain to the two-walk
// difference on fuzzed windows and bindings over the three machines.
func FuzzCommSecondsGain(f *testing.F) {
	f.Add(uint8(0), uint8(6), false, []byte{0, 1, 5, 1, 0, 3, 2, 2, 9}, []byte{0, 1, 2, 3, 4, 5}, []byte{0, 0, 9})
	f.Add(uint8(1), uint8(40), true, []byte{3, 7, 200, 7, 3, 1, 5, 5, 5}, []byte{7, 1, 4}, []byte{1, 2, 3, 4})
	f.Add(uint8(2), uint8(255), false, []byte{0, 250, 1, 9, 9, 9}, []byte{255, 0, 17}, []byte{})
	f.Fuzz(func(t *testing.T, machine, order uint8, dense bool, cells, binding, moves []byte) {
		top, err := topology.ByName([]string{"fig2", "smp20e7", "fleet1k"}[int(machine)%3])
		if err != nil {
			t.Fatal(err)
		}
		n, pus := int(order), top.NumPUs()
		if n == 0 {
			return
		}
		var a comm.Affinity = comm.NewSparse(n)
		if dense {
			a = comm.NewMatrix(n)
		}
		for k := 0; k+2 < len(cells); k += 3 { // (row, column, volume) triplets
			a.Set(int(cells[k])%n, int(cells[k+1])%n, float64(cells[k+2])*4096)
		}
		from := make([]int, n)
		for i := range from {
			if len(binding) > 0 {
				from[i] = int(binding[i%len(binding)]) * (i + 1) % pus
			}
		}
		to := append([]int(nil), from...)
		for k := 0; k+1 < len(moves); k += 2 { // (task, PU) moves
			to[int(moves[k])%n] = int(moves[k+1]) * 131 % pus
		}
		checkGain(t, top, a, from, to)
	})
}
