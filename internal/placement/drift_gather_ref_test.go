package placement

// Reference implementation of the drift gather as it was before the
// row-order walk: partitionBaseline.sortedPairs (adaptive.go) collected
// every partition-internal off-diagonal nonzero through ForEach, sorted
// them by (i, j) with two stable counting passes, and folded the
// (i, j)/(j, i) duplicates, upper cell first. It is kept verbatim, with
// the per-partition totals and the drift walk it fed, so the test below
// can hold the new gather to it bit for bit: the same pairs in the same
// order, the same totals and the same drift.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"orwlplace/internal/comm"
)

func refSortedPairs(partOf []int, a comm.Affinity) []partitionPair {
	n := len(partOf)
	var pairs []partitionPair
	a.ForEach(func(i, j int, v float64) {
		if pi := partOf[i]; pi >= 0 && i != j && partOf[j] == pi {
			if i > j {
				i, j = j, i
			}
			pairs = append(pairs, partitionPair{i: int32(i), j: int32(j), v: v})
		}
	})
	start, tmp := make([]int, n+1), make([]partitionPair, len(pairs))
	for pass, src, dst := 0, pairs, tmp; pass < 2; pass, src, dst = pass+1, dst, src {
		key := func(p partitionPair) int32 {
			if pass == 0 {
				return p.j
			}
			return p.i
		}
		clear(start)
		for _, p := range src {
			start[key(p)+1]++
		}
		for k := 1; k <= n; k++ {
			start[k] += start[k-1]
		}
		for _, p := range src {
			dst[start[key(p)]] = p
			start[key(p)]++
		}
	}
	merged := pairs[:0]
	for _, p := range pairs {
		if k := len(merged) - 1; k >= 0 && merged[k].i == p.i && merged[k].j == p.j {
			merged[k].v += p.v
		} else {
			merged = append(merged, p)
		}
	}
	return merged
}

func refGather(partOf []int, parts int, a comm.Affinity) ([]partitionPair, []float64) {
	pairs, totals := refSortedPairs(partOf, a), make([]float64, parts)
	for _, p := range pairs {
		totals[partOf[p.i]] += p.v
	}
	return pairs, totals
}

func refDrift(partOf []int, parts int, base, window comm.Affinity) []float64 {
	out := make([]float64, parts)
	a, ta := refGather(partOf, parts, base)
	b, tb := refGather(partOf, parts, window)
	for len(a) > 0 || len(b) > 0 {
		var i int32
		var va, vb float64
		switch {
		case len(b) == 0 || len(a) > 0 && (a[0].i < b[0].i || a[0].i == b[0].i && a[0].j < b[0].j):
			i, va, a = a[0].i, a[0].v, a[1:]
		case len(a) == 0 || a[0].i != b[0].i || a[0].j != b[0].j:
			i, vb, b = b[0].i, b[0].v, b[1:]
		default:
			i, va, vb, a, b = a[0].i, a[0].v, b[0].v, a[1:], b[1:]
		}
		if pi := partOf[i]; ta[pi] > 0 && tb[pi] > 0 {
			out[pi] += math.Abs(va/ta[pi] - vb/tb[pi])
		}
	}
	for pi := range out {
		switch {
		case ta[pi] == 0 && tb[pi] == 0:
			out[pi] = 0
		case ta[pi] == 0 || tb[pi] == 0:
			out[pi] = 1
		default:
			out[pi] /= 2
		}
	}
	return out
}

// samePairSet reports the first difference between a gather and the
// reference's, bit for bit, "" if none.
func samePairSet(got pairSet, pairs []partitionPair, totals []float64) string {
	if len(got.pairs) != len(pairs) {
		return fmt.Sprintf("%d pairs, want %d", len(got.pairs), len(pairs))
	}
	for k, p := range got.pairs {
		if q := pairs[k]; p.i != q.i || p.j != q.j || math.Float64bits(p.v) != math.Float64bits(q.v) {
			return fmt.Sprintf("pair %d is %+v, want %+v", k, p, q)
		}
	}
	for k, v := range got.totals {
		if math.Float64bits(v) != math.Float64bits(totals[k]) {
			return fmt.Sprintf("partition %d totals %v, want %v", k, v, totals[k])
		}
	}
	return ""
}

// gatherWindow is one seeded window shape for the reference comparison.
func gatherWindow(rng *rand.Rand, n int, shape string, sparse bool) comm.Affinity {
	var a comm.Affinity = comm.NewMatrix(n)
	if sparse {
		a = comm.NewSparse(n)
	}
	v := func() float64 { return float64(1+rng.Intn(1<<16)) / 7 } // inexact sums
	for k := 0; k < 6*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		switch shape {
		case "symmetric":
			a.AddSym(i, j, v())
		case "asymmetric": // each direction its own volume, many one-way
			a.Add(i, j, v())
			if rng.Intn(3) == 0 {
				a.Add(j, i, v())
			}
		case "lower": // only i > j: every pair has no upper cell
			if i > j {
				a.Add(i, j, v())
			} else if j > i {
				a.Add(j, i, v())
			}
		case "diagonal": // self traffic, which the gather drops
			a.Add(i, i, v())
			if rng.Intn(4) == 0 {
				a.Add(i, j, v())
			}
		}
	}
	return a
}

// TestDriftGatherMatchesReference holds the gather and the drift it
// feeds to the counting-sort reference on seeded windows of every
// shape, sparse and dense, unpartitioned and partitioned with some
// tasks in no partition.
func TestDriftGatherMatchesReference(t *testing.T) {
	const n = 96
	shapes := []string{"symmetric", "asymmetric", "lower", "diagonal"}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, parts := range []int{1, 5} {
			partOf := make([]int, n)
			for i := range partOf {
				if parts > 1 {
					partOf[i] = rng.Intn(parts+1) - 1 // -1: in no partition
				}
			}
			for _, sparse := range []bool{false, true} {
				for _, bs := range shapes {
					for _, ws := range shapes {
						base, window := gatherWindow(rng, n, bs, sparse), gatherWindow(rng, n, ws, sparse)
						pb := newPartitionBaseline(partOf, parts, base)
						bp, bt := refGather(partOf, parts, base)
						if diff := samePairSet(pb.base, bp, bt); diff != "" {
							t.Fatalf("seed %d, %d parts, sparse %v, %s baseline: %s", seed, parts, sparse, bs, diff)
						}
						got := pb.drift(make([]float64, parts), window)
						wp, wt := refGather(partOf, parts, window)
						if diff := samePairSet(pb.window, wp, wt); diff != "" {
							t.Fatalf("seed %d, %d parts, sparse %v, %s window: %s", seed, parts, sparse, ws, diff)
						}
						for k, d := range refDrift(partOf, parts, base, window) {
							if math.Float64bits(got[k]) != math.Float64bits(d) {
								t.Fatalf("seed %d, %d parts, sparse %v, %s/%s: drift[%d] = %v, want %v", seed, parts, sparse, bs, ws, k, got[k], d)
							}
						}
					}
				}
			}
		}
	}
}
