package treematch

import (
	"math"
	"slices"
	"sync"
)

// mapWorkspace holds every scratch buffer of the mapping pipeline: the
// two level matrices (working level and aggregation target, swapped
// level by level) and the engines' state. Map draws one from a pool, so
// in steady state it allocates only the groups and the mapping.
type mapWorkspace struct {
	lvl [2]symCSR
	sym symScratch

	// Greedy engine state, and the identity task list it splits.
	gr    grouper
	ident []int

	// Aggregation scratch.
	groupOf           []int
	odd               []bool
	even, oddSum, acc []float64
	rowHit, grpHit    []int

	// The densified level and the exhaustive DP tables.
	slab       []float64
	dp, weight []float64
	choice     []int
	pos, idx   []int

	// Oversubscription slot counters and mapGroups' buffers.
	slots      []int
	seqA, seqB []int

	// RemapPartition's global -> partition index: every entry -1 up to
	// its capacity between calls.
	local []int
}

var wsPool = sync.Pool{New: func() any { return new(mapWorkspace) }}

func getWorkspace() *mapWorkspace   { return wsPool.Get().(*mapWorkspace) }
func putWorkspace(ws *mapWorkspace) { wsPool.Put(ws) }

// localIndex returns ws.local sized n, every entry -1. The caller
// resets each entry it sets before putting ws back.
func (ws *mapWorkspace) localIndex(n int) []int {
	if cap(ws.local) < n {
		ws.local = slices.Repeat([]int{-1}, n)
	}
	return ws.local[:n]
}

// grow returns *buf resized to n, reallocated when its capacity is
// short. The contents are unspecified unless the caller clears them.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// pair is a communicating entity pair i < j with its symmetrized volume.
type pair struct {
	i, j int32
	vol  float64
}

// sortPairs orders pairs heaviest first, ties by (i,j) ascending,
// given pairs listed in (i,j) order with positive volumes: a stable
// sort on the volume alone then suffices. It is an LSD radix sort on
// the complemented volume bits (for non-negative floats the bit
// patterns order like the values) that only visits the bytes in which
// some keys differ, so typical volumes sort in two or three passes.
// tmp is scratch of any length; the sorted list is returned with the
// other buffer.
func sortPairs(pairs, tmp []pair) (sorted, spare []pair) {
	if len(pairs) < 2 {
		return pairs, tmp
	}
	if cap(tmp) < len(pairs) {
		tmp = make([]pair, len(pairs))
	}
	first := math.Float64bits(pairs[0].vol)
	var differ uint64
	for _, p := range pairs {
		differ |= math.Float64bits(p.vol) ^ first
	}
	src, dst := pairs, tmp[:len(pairs)]
	for shift := 0; shift < 64; shift += 8 {
		if byte(differ>>shift) == 0 {
			continue
		}
		var at [256]int
		for _, p := range src {
			at[^byte(math.Float64bits(p.vol)>>shift)]++
		}
		sum := 0
		for d, k := range at {
			at[d] = sum
			sum += k
		}
		for _, p := range src {
			d := ^byte(math.Float64bits(p.vol) >> shift)
			dst[at[d]] = p
			at[d]++
		}
		src, dst = dst, src
	}
	return src, dst
}

// candEntry is one lazily-validated candidate of a grow heap: the
// entity and the affinity it had when pushed. Stale entries (the
// affinity has since grown, or the entity was assigned) are discarded
// at pop time.
type candEntry struct {
	vol float64
	idx int
}

func candBefore(a, b candEntry) bool {
	if a.vol != b.vol {
		return a.vol > b.vol
	}
	return a.idx < b.idx
}

func pushCand(h []candEntry, e candEntry) []candEntry {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !candBefore(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	return h
}

func popCand(h []candEntry) []candEntry {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h) && candBefore(h[l], h[best]) {
			best = l
		}
		if r < len(h) && candBefore(h[r], h[best]) {
			best = r
		}
		if best == i {
			return h
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
