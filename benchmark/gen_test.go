package main

import (
	"slices"
	"testing"

	"orwlplace/internal/comm"
)

// poolFingerprints is the identity of everything a cold-clustered run
// sends: every base matrix of both callers, then the first perturbation
// of each.
func poolFingerprints(seed int64) []uint64 {
	var fps []uint64
	for c := 0; c < callers; c++ {
		pool := newColdPool(seed, c)
		for _, e := range pool {
			fps = append(fps, comm.Fingerprint(e.m))
		}
		for _, e := range pool {
			e.perturb()
			fps = append(fps, comm.Fingerprint(e.m))
		}
	}
	return fps
}

func TestSameSeedSamePoolDifferentSeedDifferentPool(t *testing.T) {
	a, b, other := poolFingerprints(1), poolFingerprints(1), poolFingerprints(2)
	seen := map[uint64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 1 twice: fingerprint %d differs", i)
		}
		if seen[a[i]] {
			t.Fatalf("fingerprint %d repeats inside one seed's pool: the request would hit the cache", i)
		}
		seen[a[i]] = true
	}
	same := 0
	for i := range a {
		if a[i] == other[i] {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("seeds 1 and 2 share %d of %d fingerprints", same, len(a))
	}
}

func TestPerturbNeverRepeatsAFingerprint(t *testing.T) {
	e := newClusteredMatrix(newRNG(3, streamPool), 64)
	seen := map[uint64]bool{comm.Fingerprint(e.m): true}
	for i := 0; i < 1000; i++ {
		e.perturb()
		fp := comm.Fingerprint(e.m)
		if seen[fp] {
			t.Fatalf("use %d repeats an earlier fingerprint", i+1)
		}
		seen[fp] = true
	}
}

func TestClusteredMatrixShape(t *testing.T) {
	for _, n := range coldSizes {
		e := newClusteredMatrix(newRNG(5, streamPool), n)
		if !e.m.IsSymmetric() {
			t.Errorf("n=%d: not symmetric", n)
		}
		// Every task has 7 heavy cluster mates; two tasks per cluster
		// also carry one light ring link.
		heavy, light := 0, 0
		e.m.ForEach(func(i, j int, v float64) {
			if v >= intraVolume {
				heavy++
			} else {
				light++
			}
		})
		k := n / clusterSize
		if heavy != n*(clusterSize-1) || light != 2*k {
			t.Errorf("n=%d: %d heavy and %d light entries, want %d and %d", n, heavy, light, n*(clusterSize-1), 2*k)
		}
	}
}

// shiftSequence is the cluster pattern of both peers over a few shifts.
func shiftSequence(seed int64, spec fleetSpec, shifts int) [][]int {
	var seq [][]int
	for i := 0; i < peers; i++ {
		rng := newRNG(seed, streamShift+i)
		cl := identityClusters(spec.tasks)
		for s := 0; s <= shifts; s++ {
			cl.reshuffleHead(rng, spec.head)
			seq = append(seq, append([]int(nil), cl.members...))
		}
	}
	return seq
}

func TestSameSeedSameShiftPermutations(t *testing.T) {
	for _, spec := range fleetSpecs {
		a, b, other := shiftSequence(1, spec, 4), shiftSequence(1, spec, 4), shiftSequence(2, spec, 4)
		differs := false
		for i := range a {
			if !slices.Equal(a[i], b[i]) {
				t.Fatalf("%s: seed 1 twice: pattern %d differs", spec.name, i)
			}
			if !slices.Equal(a[i], other[i]) {
				differs = true
			}
			// The tail beyond head never moves, and the head stays a
			// permutation of itself: the shift is partition-local.
			for j, task := range a[i] {
				if (j >= spec.head) != (task >= spec.head) || (j >= spec.head && task != j) {
					t.Fatalf("%s: pattern %d moves task %d to slot %d across the head boundary %d", spec.name, i, task, j, spec.head)
				}
			}
		}
		if !differs {
			t.Fatalf("%s: seeds 1 and 2 shift identically", spec.name)
		}
		if i, j := a[0], a[1]; slices.Equal(i, j) {
			t.Fatalf("%s: a shift left the pattern unchanged", spec.name)
		}
	}
}

func TestWindowIsWhatRecordProduces(t *testing.T) {
	w, err := setupFleet("fleet-shift-160", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	p := w.peers[0]
	p.cl.record(p.prog.Traffic())
	observed := p.prog.ObservedWindow()
	generated := p.cl.window()
	if observed.NNZ() != p.cl.pairs() || generated.NNZ() != p.cl.pairs() {
		t.Fatalf("nnz observed %d generated %d, want %d", observed.NNZ(), generated.NNZ(), p.cl.pairs())
	}
	generated.ForEach(func(i, j int, v float64) {
		if observed.At(i, j) != v {
			t.Fatalf("cell (%d,%d): observed %g, generated %g", i, j, observed.At(i, j), v)
		}
	})
}
