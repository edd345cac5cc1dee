package orwl

// Reference implementation of the observed-traffic recorder as it was
// before the per-row tables: above comm.DenseOrderThreshold, 256
// lock-striped shards, each a Go map from the flattened pair to a slot
// in append-only counter slices, and a window that gathers the epoch
// shard by shard and fills its snapshot with one Set per cell. It is
// kept verbatim — but for the window's dense form past n²/8 cells,
// deleted with the one in traffic.go — so the tests below can hold
// Traffic.Record and TrafficWindow.NextAffinity (traffic.go) to it bit
// for bit: the same cells, values and row order, seed after seed.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"orwlplace/internal/comm"
)

type refTraffic struct {
	n      int
	bytes  []uint64 // dense mode; nil in sparse mode
	shards []refShard
}

const refShards = 256

type refShard struct {
	mu    sync.Mutex
	slot  map[int64]int
	pairs [][2]int32
	bytes []uint64
}

func newRefTraffic(n int) *refTraffic {
	t := &refTraffic{n: n}
	if n <= comm.DenseOrderThreshold {
		t.bytes = make([]uint64, n*n)
		return t
	}
	t.shards = make([]refShard, refShards)
	for i := range t.shards {
		t.shards[i].slot = make(map[int64]int)
	}
	return t
}

func (t *refTraffic) Record(from, to, b int) {
	if from == to || from < 0 || to < 0 || from >= t.n || to >= t.n {
		return
	}
	i := int64(from)*int64(t.n) + int64(to)
	if t.shards == nil {
		t.bytes[i] += uint64(b)
		return
	}
	sh := &t.shards[i&(refShards-1)]
	sh.mu.Lock()
	k, ok := sh.slot[i]
	if !ok {
		k = len(sh.pairs)
		sh.slot[i] = k
		sh.pairs = append(sh.pairs, [2]int32{int32(from), int32(to)})
		sh.bytes = append(sh.bytes, 0)
	}
	sh.bytes[k] += uint64(b)
	sh.mu.Unlock()
}

type refWindow struct {
	t      *refTraffic
	base   [][]uint64
	cells  []windowCell
	rowNNZ []int
	spare  *comm.Sparse
}

func (t *refTraffic) NewWindow() *refWindow {
	w := &refWindow{t: t, rowNNZ: make([]int, t.n)}
	if t.shards == nil {
		w.base = [][]uint64{make([]uint64, t.n*t.n)}
	} else {
		w.base = make([][]uint64, refShards)
	}
	return w
}

func (w *refWindow) NextAffinity() *comm.Sparse {
	t := w.t
	cells := w.cells[:0]
	clear(w.rowNNZ)
	if t.shards == nil {
		base := w.base[0]
		for k := range base {
			cur := t.bytes[k]
			if d := cur - base[k]; d != 0 {
				from := k / t.n
				cells = append(cells, windowCell{from: int32(from), to: int32(k - from*t.n), bytes: d})
				w.rowNNZ[from]++
				base[k] = cur
			}
		}
	}
	for s := range t.shards {
		sh := &t.shards[s]
		base := w.base[s]
		sh.mu.Lock()
		for k, cur := range sh.bytes {
			if k == len(base) {
				base = append(base, 0)
			}
			if d := cur - base[k]; d != 0 {
				p := sh.pairs[k]
				cells = append(cells, windowCell{from: p[0], to: p[1], bytes: d})
				w.rowNNZ[p[0]]++
				base[k] = cur
			}
		}
		sh.mu.Unlock()
		w.base[s] = base
	}
	w.cells = cells
	a := w.spare
	w.spare = nil
	if a != nil {
		a.ResetSized(w.rowNNZ)
	} else {
		a = comm.NewSparseSized(w.rowNNZ)
	}
	for _, c := range cells {
		a.Set(int(c.from), int(c.to), float64(c.bytes))
	}
	return a
}

func (w *refWindow) Recycle(a *comm.Sparse) { w.spare = a }

// sameSnapshot reports the first difference between two snapshots in
// representation, order or stored cells — walked in stored order, so a
// row out of column order differs too — "" if none.
func sameSnapshot(got, want comm.Affinity) string {
	if fmt.Sprintf("%T", got) != fmt.Sprintf("%T", want) || got.Order() != want.Order() {
		return fmt.Sprintf("%T of order %d, want %T of order %d", got, got.Order(), want, want.Order())
	}
	type cell struct {
		i, j int
		v    uint64
	}
	var g, w []cell
	got.ForEach(func(i, j int, v float64) { g = append(g, cell{i, j, math.Float64bits(v)}) })
	want.ForEach(func(i, j int, v float64) { w = append(w, cell{i, j, math.Float64bits(v)}) })
	if len(g) != len(w) {
		return fmt.Sprintf("%d cells, want %d", len(g), len(w))
	}
	for k := range g {
		if g[k] != w[k] {
			return fmt.Sprintf("cell %d is %+v, want %+v", k, g[k], w[k])
		}
	}
	return ""
}

// TestTrafficMatchesShardedReference replays seeded record sequences
// into Traffic and the sharded reference and compares every epoch's
// snapshot, through a window whose snapshots are handed back and one
// whose are not. The epochs cover hub rows that grow their index many
// times over, rows first seen in descending column order, pairs
// recorded with zero bytes, idle epochs, and an epoch past n²/8 cells.
// The replay is single-threaded: under the race
// detector one seed is enough.
func TestTrafficMatchesShardedReference(t *testing.T) {
	seeds := int64(3)
	if raceBuild {
		seeds = 1
	}
	for _, n := range []int{48, comm.DenseOrderThreshold + 1, 600} {
		for seed := int64(1); seed <= seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tr, ref := newTraffic(n), newRefTraffic(n)
			record := func(from, to, b int) {
				tr.Record(from, to, b)
				ref.Record(from, to, b)
			}
			recycled, fresh := tr.NewWindow(), tr.NewWindow()
			refRecycled, refFresh := ref.NewWindow(), ref.NewWindow()
			for epoch := 0; epoch < 9; epoch++ {
				switch epoch {
				case 2: // a hub row talks to most tasks, in random order
					hub := rng.Intn(n)
					for _, to := range rng.Perm(n)[:n*3/4] {
						record(hub, to, 1+rng.Intn(1<<20))
					}
				case 4: // every row first seen in descending order
					for from := 0; from < n; from++ {
						for d := 5; d > 0; d-- {
							record(from, (from+d*7)%n, rng.Intn(3)) // zero bytes too
						}
					}
				case 6: // past n²/8 cells
					for k := 0; k < n*n/8+n; k++ {
						record(rng.Intn(n), rng.Intn(n), 1+rng.Intn(100))
					}
				case 7: // idle
				default: // 8-cliques under a random relabelling
					perm := rng.Perm(n)
					for c := 0; c+8 <= n; c += 8 {
						for _, a := range perm[c : c+8] {
							for _, b := range perm[c : c+8] {
								record(a, b, 1+rng.Intn(4096))
							}
						}
					}
				}
				got, want := recycled.NextAffinity(), refRecycled.NextAffinity()
				if diff := sameSnapshot(got, want); diff != "" {
					t.Fatalf("order %d, seed %d, epoch %d, recycled window: %s", n, seed, epoch, diff)
				}
				recycled.Recycle(got)
				refRecycled.Recycle(want)
				if diff := sameSnapshot(fresh.NextAffinity(), refFresh.NextAffinity()); diff != "" {
					t.Fatalf("order %d, seed %d, epoch %d, fresh window: %s", n, seed, epoch, diff)
				}
			}
		}
	}
}
