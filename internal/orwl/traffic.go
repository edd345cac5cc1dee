package orwl

import (
	"sync"
	"sync/atomic"

	"orwlplace/internal/comm"
)

// Traffic accumulates the observed inter-task communication of a
// running program: for every (from, to) task pair, the bytes that
// actually moved and the number of transfer operations. It is the
// runtime-measured counterpart of the declared dependency matrix —
// what the tasks really exchange, not what their handle graph
// announces at the schedule barrier.
//
// Up to comm.DenseOrderThreshold tasks the counters are plain atomics
// over a flat n×n array, so recording on the acquire-release and
// push/pop hot paths costs two uncontended atomic adds and no
// allocation. Above the threshold a flat array would be O(n²) — 1.6 GB
// of counters for a 10k-task program whose tasks talk to a handful of
// neighbours each — so the recorder switches to sharded counters: a
// hash from pair to a slot in append-only counter slices, O(nnz) memory,
// one map lookup and one short mutex hold per record. Snapshots (Affinity,
// Matrix, window epochs) walk the counters without stopping the
// writers; the snapshot as a whole is only approximately
// instantaneous, which is fine for a drift signal.
type Traffic struct {
	n     int
	bytes []atomic.Uint64 // dense mode; nil in sparse mode
	ops   []atomic.Uint64

	shards []trafficShard // sparse mode; nil in dense mode

	// win is the program's default window (see ObservedWindowAffinity);
	// independent consumers create their own with NewWindow.
	win *TrafficWindow
}

// trafficShards is the sparse-mode shard count. Power of two so the
// shard pick is a mask; 256 keeps contention negligible for the
// thread counts a single process runs.
const trafficShards = 256

// trafficShard is one lock-striped slice of the sparse counters. slot
// maps the flattened pair index from*n+to to the pair's position in
// three parallel slices that only grow: positions are for life, so
// readers walk the slices without hashing and a window baseline is a
// position-aligned copy.
type trafficShard struct {
	mu    sync.Mutex
	slot  map[int64]int
	pairs [][2]int32 // (from, to), in first-seen order
	bytes []uint64
	ops   []uint64
}

// newTraffic sizes a recorder for n tasks: dense counters up to
// comm.DenseOrderThreshold, sharded sparse counters above.
func newTraffic(n int) *Traffic {
	t := &Traffic{n: n}
	if n <= comm.DenseOrderThreshold {
		t.bytes = make([]atomic.Uint64, n*n)
		t.ops = make([]atomic.Uint64, n*n)
	} else {
		t.shards = make([]trafficShard, trafficShards)
		for i := range t.shards {
			t.shards[i].slot = make(map[int64]int)
		}
	}
	t.win = t.NewWindow()
	return t
}

// Tasks returns the number of tasks the recorder covers.
func (t *Traffic) Tasks() int { return t.n }

// Sparse reports whether the recorder runs in sparse mode.
func (t *Traffic) Sparse() bool { return t != nil && t.shards != nil }

// Record accumulates one transfer of b bytes from task `from` to task
// `to`. Out-of-range or self pairs and unattributed endpoints
// (negative ids, e.g. remote peers without a task identity) are
// dropped — the recorder measures inter-task traffic only.
func (t *Traffic) Record(from, to, b int) {
	if t == nil || from == to || from < 0 || to < 0 || from >= t.n || to >= t.n {
		return
	}
	i := int64(from)*int64(t.n) + int64(to)
	if t.shards == nil {
		t.bytes[i].Add(uint64(b))
		t.ops[i].Add(1)
		return
	}
	sh := &t.shards[i&(trafficShards-1)]
	sh.mu.Lock()
	k, ok := sh.slot[i]
	if !ok {
		k = len(sh.pairs)
		sh.slot[i] = k
		sh.pairs = append(sh.pairs, [2]int32{int32(from), int32(to)})
		sh.bytes = append(sh.bytes, 0)
		sh.ops = append(sh.ops, 0)
	}
	sh.bytes[k] += uint64(b)
	sh.ops[k]++
	sh.mu.Unlock()
}

// Affinity returns the cumulative observed communication as an
// affinity in the representation matching the task count — the O(nnz)
// snapshot a 10k-task program's placement loop consumes.
func (t *Traffic) Affinity() comm.Affinity {
	a := comm.NewAffinity(t.n)
	for i := range t.bytes { // dense mode
		if v := t.bytes[i].Load(); v != 0 {
			a.Set(i/t.n, i%t.n, float64(v))
		}
	}
	for s := range t.shards { // sparse mode
		sh := &t.shards[s]
		sh.mu.Lock()
		for k, v := range sh.bytes {
			a.Set(int(sh.pairs[k][0]), int(sh.pairs[k][1]), float64(v))
		}
		sh.mu.Unlock()
	}
	return a
}

// Matrix returns the cumulative observed communication matrix: entry
// (i, j) holds the bytes moved from task i to task j since the
// program started. Above the dense threshold this materializes n²
// cells — large-scale consumers should use Affinity instead.
func (t *Traffic) Matrix() *comm.Matrix { return t.Affinity().Dense() }

// TrafficWindow carves the recorder's cumulative counters into
// disjoint epochs for one consumer: each NextAffinity call returns the
// traffic since that window's previous call. Every consumer that
// snapshots independently (an adaptive reconciler, a module with
// observed affinity, a monitoring scraper) must own its own window —
// sharing one would silently steal epochs from the other readers.
type TrafficWindow struct {
	t *Traffic

	mu sync.Mutex
	// base holds the cumulative byte counts at the previous epoch,
	// position-aligned with the recorder's counters so advancing never
	// hashes: base[0] mirrors the flat n x n array in dense mode, base[s]
	// shard s's slices (growing with them) in sparse mode.
	base [][]uint64
	// Scratch of NextAffinity, reused across calls: the epoch's nonzeros
	// are gathered first (under the shard locks in sparse mode), the
	// snapshot is built from them afterwards.
	cells  []windowCell
	rowNNZ []int
	spare  comm.Affinity // handed back by Recycle, refilled by the next call
}

// windowCell is one gathered nonzero of an epoch.
type windowCell struct {
	from, to int32
	bytes    uint64
}

// NewWindow returns an independent epoch window over the recorder
// with an empty baseline: the first NextAffinity returns everything
// recorded since the program started.
func (t *Traffic) NewWindow() *TrafficWindow {
	w := &TrafficWindow{t: t, rowNNZ: make([]int, t.n)}
	if t.shards == nil {
		w.base = [][]uint64{make([]uint64, t.n*t.n)}
	} else {
		w.base = make([][]uint64, trafficShards)
	}
	return w
}

// NextAffinity returns the observed affinity of the epoch since the
// previous call (or since the start, on the first call) and advances
// the window baseline. The snapshot is the caller's own, frozen until
// the caller hands it back with Recycle, sized exactly: sparse when the
// epoch holds at most n²/8 nonzeros — what an observed window nearly
// always is, at any order — dense otherwise. O(nnz) in sparse mode;
// dense mode reads its n² counters once.
func (w *TrafficWindow) NextAffinity() comm.Affinity {
	w.mu.Lock()
	defer w.mu.Unlock()
	t := w.t
	cells := w.cells[:0]
	clear(w.rowNNZ)
	if t.shards == nil {
		base := w.base[0]
		for k := range base {
			cur := t.bytes[k].Load()
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
	if len(cells) > t.n*t.n/8 {
		if m, ok := a.(*comm.Matrix); ok {
			m.Reset(t.n)
		} else {
			a = comm.NewMatrix(t.n)
		}
	} else if sp, ok := a.(*comm.Sparse); ok {
		sp.ResetSized(w.rowNNZ)
	} else {
		a = comm.NewSparseSized(w.rowNNZ)
	}
	for _, c := range cells {
		a.Set(int(c.from), int(c.to), float64(c.bytes))
	}
	return a
}

// Recycle hands back a snapshot NextAffinity returned, for the next call
// to refill in place when it has that epoch's representation. The
// caller must hold no other reference to a.
func (w *TrafficWindow) Recycle(a comm.Affinity) {
	if comm.NilAffinity(a) {
		return
	}
	w.mu.Lock()
	w.spare = a
	w.mu.Unlock()
}

// Totals returns the cumulative byte and operation counts over all
// pairs.
func (t *Traffic) Totals() (bytes, ops uint64) {
	if t.shards == nil {
		for i := range t.bytes {
			bytes += t.bytes[i].Load()
			ops += t.ops[i].Load()
		}
		return
	}
	for s := range t.shards {
		sh := &t.shards[s]
		sh.mu.Lock()
		for k := range sh.bytes {
			bytes += sh.bytes[k]
			ops += sh.ops[k]
		}
		sh.mu.Unlock()
	}
	return
}

// Ops returns the cumulative transfer-operation count for the (from,
// to) pair.
func (t *Traffic) Ops(from, to int) uint64 {
	if from < 0 || to < 0 || from >= t.n || to >= t.n {
		return 0
	}
	i := int64(from)*int64(t.n) + int64(to)
	if t.shards == nil {
		return t.ops[i].Load()
	}
	sh := &t.shards[i&(trafficShards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if k, ok := sh.slot[i]; ok {
		return sh.ops[k]
	}
	return 0
}

// Traffic exposes the program's traffic recorder, so traffic that flows
// outside the location grid can be recorded into the same observed
// matrix.
func (p *Program) Traffic() *Traffic { return p.traffic }

// ObservedMatrix returns the cumulative runtime-observed communication
// matrix — the measured counterpart of DependencyMatrix. Entry (i, j)
// is the bytes that actually flowed from task i to task j through
// location grants, raw requests and direct Traffic records.
func (p *Program) ObservedMatrix() *comm.Matrix { return p.traffic.Matrix() }

// ObservedWindow is ObservedWindowAffinity as a dense matrix: n² cells
// at any order.
func (p *Program) ObservedWindow() *comm.Matrix { return p.traffic.win.NextAffinity().Dense() }

// ObservedWindowAffinity returns the traffic since the previous call of
// it or ObservedWindow, both advancing the program's default window: an
// epoch of at most n²/8 nonzeros is a sparse snapshot, never n² cells.
func (p *Program) ObservedWindowAffinity() comm.Affinity { return p.traffic.win.NextAffinity() }

// RecycleObservedWindow hands a snapshot ObservedWindowAffinity returned
// back to the default window (see TrafficWindow.Recycle).
func (p *Program) RecycleObservedWindow(a comm.Affinity) { p.traffic.win.Recycle(a) }
