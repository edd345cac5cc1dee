package placement

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/perfsim"
	"orwlplace/internal/topology"
)

// cliquePeer is one peer's traffic in the partition-local shift
// workload: its tasks grouped into 8-cliques, members[c*8:(c+1)*8]
// being clique c, every ordered pair moving 16 MiB plus a salted jitter
// below 64 KiB.
type cliquePeer struct {
	members []int
	salt    uint32
}

// reshuffleHead re-clusters tasks [0, head) among themselves by a fresh
// permutation and re-salts every pair's bytes.
func (p *cliquePeer) reshuffleHead(rng *rand.Rand, head int) {
	copy(p.members[:head], rng.Perm(head))
	p.salt = rng.Uint32()
}

// addTo adds one window of the peer's traffic at base, every pair's
// bytes scaled by scale.
func (p *cliquePeer) addTo(w *comm.Sparse, base int, scale float64) {
	for c := 0; c+8 <= len(p.members); c += 8 {
		for _, a := range p.members[c : c+8] {
			for _, b := range p.members[c : c+8] {
				if a != b {
					h := (uint32(a)*0x9E3779B1 ^ uint32(b)*0x85EBCA77 ^ p.salt) * 0xC2B2AE3D
					w.Add(base+a, base+b, scale*float64(16<<20+int(h>>8)%(1<<16)))
				}
			}
		}
	}
}

// TestPartitionedRemapScoringIdentity2k replays partition-local shifts
// on fleet1k — two peers of 1,024 tasks in 8-cliques, each shift
// re-shuffling and re-salting the first 96 tasks of both, steady
// windows in between — through the partitioned loop, and scores every
// candidate a second time with the reference model: the two-walk
// CommSeconds difference. The gains agree to 1e-9 and every decision
// the reference makes is the loop's, with the same assignment and moved
// tasks. Since the two scorings agree on every candidate, a loop scored
// by the reference would reach each epoch in the same state, so its
// Recomputed and Held flags are these too. The replay runs at the
// benchmark's volumes and scaled down to where the modeled gain nears
// the migration cost, so both adoptions and rejections are checked.
func TestPartitionedRemapScoringIdentity2k(t *testing.T) {
	var scored, adopted int
	for _, scale := range []float64{1, 5e-6, 1e-6} {
		s, a := replayPartitionedShifts(t, scale)
		scored, adopted = scored+s, adopted+a
	}
	if scored < 36 || adopted == 0 || adopted == scored {
		t.Fatalf("%d candidates scored, %d adopted: the replay must both adopt and reject", scored, adopted)
	}
	t.Logf("%d candidates scored, %d adopted", scored, adopted)
}

// replayPartitionedShifts runs TestPartitionedRemapScoringIdentity2k's
// replay at one volume scale and returns how many candidates it scored and
// adopted.
func replayPartitionedShifts(t *testing.T, scale float64) (scored, adopted int) {
	t.Helper()
	const tasks, head = 1024, 96
	top := topology.Fleet1K()
	eng, err := NewEngine(top)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2048))
	var peers [2]cliquePeer
	for i := range peers {
		peers[i].members = make([]int, tasks)
		for k := range peers[i].members {
			peers[i].members[k] = k
		}
		peers[i].reshuffleHead(rng, head)
	}
	window := func() *comm.Sparse {
		w := comm.NewSparse(2 * tasks)
		for i := range peers {
			peers[i].addTo(w, i*tasks, scale)
		}
		return w
	}
	src := &phaseSource{}
	cfg := AdaptiveConfig{Horizon: 500}
	rec, err := NewReconciler(eng, src, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Prime(Fixed("declared", window())); err != nil {
		t.Fatal(err)
	}
	if !hasPartitions(rec.Current()) {
		t.Fatal("the primed 2k mapping is not partitioned")
	}
	cfg = rec.cfg // with defaults
	for e := 1; e <= 24; e++ {
		if e%2 == 1 {
			for i := range peers {
				peers[i].reshuffleHead(rng, head)
			}
		}
		win := window()
		src.affs = []comm.Affinity{win}
		cur := rec.Current()
		rep, err := rec.Epoch()
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		if !rep.Recomputed {
			if rep.Adopted || rep.Assignment != cur {
				t.Fatalf("epoch %d: nothing recomputed, yet the assignment changed", e)
			}
			continue
		}
		scored++
		cand, err := rec.remapPartitions(cur, win, rep.RemappedPartitions)
		if err != nil {
			t.Fatal(err)
		}
		before, err := perfsim.CommSeconds(top, win, cur.ComputePU)
		if err != nil {
			t.Fatal(err)
		}
		after, err := perfsim.CommSeconds(top, win, cand.ComputePU)
		if err != nil {
			t.Fatal(err)
		}
		perIter := float64(cfg.Horizon) / float64(cfg.WindowIterations)
		ref := (before - after) * float64(cfg.Horizon) / float64(cfg.WindowIterations)
		if tol := 1e-9*math.Abs(ref) + 1e-12*(before+after)*perIter; math.Abs(rep.GainSeconds-ref) > tol {
			t.Fatalf("scale %g, epoch %d: gain %g, reference %g", scale, e, rep.GainSeconds, ref)
		}
		want, wantMoved := cur, []int(nil)
		if ref > rep.CostSeconds {
			want, wantMoved = cand, movedTasks(cur, cand)
			adopted++
		}
		if rep.Adopted != (want == cand) || !slices.Equal(rep.Assignment.ComputePU, want.ComputePU) || !slices.Equal(rep.MovedTasks, wantMoved) {
			t.Fatalf("scale %g, epoch %d: adopted %v moving %d tasks; the reference adopts %v moving %d (gain %g, cost %g)",
				scale, e, rep.Adopted, len(rep.MovedTasks), want == cand, len(wantMoved), ref, rep.CostSeconds)
		}
	}
	return scored, adopted
}
