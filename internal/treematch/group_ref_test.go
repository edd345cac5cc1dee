package treematch

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"orwlplace/internal/comm"
)

// Reference implementations of the grouping engines as they existed
// before the incremental rewrite, kept verbatim so the golden quality
// tests below can prove the optimized engines lose no intra-group
// volume. refGroupGreedy rescans every unassigned entity against every
// group member (O(n * |g|) per admission) seeded from the fully sorted
// pair list; refGroupExhaustive recomputes the group weight from
// scratch for every DP candidate.

func refGroupGreedy(m *comm.Matrix, arity int) [][]int {
	n := m.Order()
	assigned := make([]bool, n)
	pairs := m.HeaviestPairs(0)
	var groups [][]int
	pairIdx := 0
	remaining := n
	for remaining > 0 {
		var g []int
		for ; pairIdx < len(pairs); pairIdx++ {
			pr := pairs[pairIdx]
			if !assigned[pr.I] && !assigned[pr.J] {
				g = append(g, pr.I, pr.J)
				assigned[pr.I], assigned[pr.J] = true, true
				break
			}
		}
		if len(g) == 0 {
			for i := 0; i < n; i++ {
				if !assigned[i] {
					g = append(g, i)
					assigned[i] = true
					break
				}
			}
		}
		for len(g) < arity {
			best, bestVol := -1, math.Inf(-1)
			for k := 0; k < n; k++ {
				if assigned[k] {
					continue
				}
				var vol float64
				for _, e := range g {
					vol += m.At(k, e) + m.At(e, k)
				}
				if vol > bestVol {
					best, bestVol = k, vol
				}
			}
			g = append(g, best)
			assigned[best] = true
		}
		remaining -= len(g)
		groups = append(groups, g)
	}
	normalizeGroups(groups)
	return groups
}

func refGroupExhaustive(m *comm.Matrix, arity int) [][]int {
	n := m.Order()
	full := (1 << uint(n)) - 1
	dp := make([]float64, full+1)
	choice := make([]int, full+1)
	for i := range dp {
		dp[i] = math.Inf(-1)
	}
	dp[0] = 0

	groupWeight := func(mask int) float64 {
		var w float64
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			for j := i + 1; j < n; j++ {
				if mask&(1<<uint(j)) != 0 {
					w += m.At(i, j) + m.At(j, i)
				}
			}
		}
		return w
	}

	for mask := 1; mask <= full; mask++ {
		if bits.OnesCount(uint(mask))%arity != 0 {
			continue
		}
		low := mask & -mask
		rest := mask &^ low
		forEachSubsetOfSize(rest, arity-1, func(sub int) {
			g := sub | low
			prev := dp[mask&^g]
			if math.IsInf(prev, -1) {
				return
			}
			cand := prev + groupWeight(g)
			if cand > dp[mask] {
				dp[mask] = cand
				choice[mask] = g
			}
		})
	}

	var groups [][]int
	for mask := full; mask != 0; {
		g := choice[mask]
		var members []int
		for i := 0; i < n; i++ {
			if g&(1<<uint(i)) != 0 {
				members = append(members, i)
			}
		}
		groups = append(groups, members)
		mask &^= g
	}
	normalizeGroups(groups)
	return groups
}

// intRandom returns a random symmetric matrix with non-negative
// integer entries. Integer volumes keep every partial sum exact in
// float64, so "identical volume" assertions are not at the mercy of
// summation order.
func intRandom(n int, max int, seed int64) *comm.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := comm.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := float64(rng.Intn(max + 1))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// goldenCorpus is the seeded matrix set both golden tests sweep:
// random, clustered and stencil communication structures at several
// sizes.
func goldenCorpus(n int) []*comm.Matrix {
	ms := []*comm.Matrix{
		comm.Clustered(n, 2, 1000, 1),
		comm.Ring(n, 1<<12, true),
	}
	for seed := int64(1); seed <= 8; seed++ {
		ms = append(ms, intRandom(n, 1000, seed))
	}
	if bx := n / 4; bx >= 2 {
		ms = append(ms, comm.Stencil2D(bx, 4, 1<<10, 1<<8))
	}
	return ms
}

// Golden quality: the incremental greedy engine must achieve at least
// the intra-group volume of the reference engine on every corpus
// matrix. (It is in fact engineered to make the identical choices —
// same seed order, same affinity values, same tie-breaks — so the
// volumes should be exactly equal; the assertion only demands "no
// worse" to stay robust if either engine is ever tuned further.)
func TestGoldenGreedyNoVolumeLoss(t *testing.T) {
	for _, n := range []int{16, 24, 48} {
		for _, arity := range []int{2, 4, 8} {
			if n%arity != 0 {
				continue
			}
			for mi, m := range goldenCorpus(n) {
				got, err := GroupProcesses(m, arity, 1) // force greedy
				if err != nil {
					t.Fatal(err)
				}
				ref := refGroupGreedy(m, arity)
				gotVol := IntraGroupVolume(m, got)
				refVol := IntraGroupVolume(m, ref)
				if gotVol < refVol {
					t.Errorf("n=%d arity=%d matrix#%d: incremental greedy volume %g < reference %g",
						n, arity, mi, gotVol, refVol)
				}
			}
		}
	}
}

// The incremental greedy is designed to be decision-identical to the
// reference: check the groups themselves on a sample, not just the
// volume.
func TestGoldenGreedyIdenticalGroups(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		m := intRandom(24, 500, seed)
		got, err := GroupProcesses(m, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		ref := refGroupGreedy(m, 4)
		if len(got) != len(ref) {
			t.Fatalf("seed %d: %d groups, reference %d", seed, len(got), len(ref))
		}
		for gi := range got {
			for x := range got[gi] {
				if got[gi][x] != ref[gi][x] {
					t.Fatalf("seed %d: group %d = %v, reference %v", seed, gi, got[gi], ref[gi])
				}
			}
		}
	}
}

// Golden quality: the memoized exhaustive DP must produce partitions
// with exactly the volume of the naive DP — both are optimal, so any
// difference is a bug in the weight memoisation.
func TestGoldenExhaustiveIdenticalVolume(t *testing.T) {
	for _, cfg := range []struct{ n, arity int }{
		{8, 2}, {8, 4}, {12, 2}, {12, 3}, {12, 4}, {12, 6}, {14, 7}, {15, 3},
	} {
		for mi, m := range goldenCorpus(cfg.n)[:6] { // clustered, ring, 4 randoms
			got, err := GroupProcesses(m, cfg.arity, 20)
			if err != nil {
				t.Fatal(err)
			}
			ref := refGroupExhaustive(m, cfg.arity)
			gotVol := IntraGroupVolume(m, got)
			refVol := IntraGroupVolume(m, ref)
			if gotVol != refVol {
				t.Errorf("n=%d arity=%d matrix#%d: memoized DP volume %g != naive DP %g",
					cfg.n, cfg.arity, mi, gotVol, refVol)
			}
		}
	}
}

// forEachSubsetOfSize calls fn with every subset of mask having exactly
// size bits set. It is the reference form of the combination walk that
// groupExhaustive inlines over workspace buffers (the inline copy
// avoids the per-call position/index allocations and the closure).
func forEachSubsetOfSize(mask, size int, fn func(int)) {
	if size == 0 {
		fn(0)
		return
	}
	var pos []int
	for i := mask; i != 0; i &= i - 1 {
		pos = append(pos, bits.TrailingZeros(uint(i)))
	}
	if len(pos) < size {
		return
	}
	idx := make([]int, size)
	for i := range idx {
		idx[i] = i
	}
	for {
		sub := 0
		for _, k := range idx {
			sub |= 1 << uint(pos[k])
		}
		fn(sub)
		i := size - 1
		for i >= 0 && idx[i] == len(pos)-size+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < size; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
