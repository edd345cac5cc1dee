package orwl

import (
	"cmp"
	"math/bits"
	"slices"
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
// neighbours each — so the recorder switches to one table per source
// row (see trafficRow): O(pairs ever seen) memory, and a record is one
// atomic load, one probe and two atomic adds, with no lock once the pair
// has been seen. Snapshots (Affinity, Matrix, window epochs) walk the counters
// row by row without stopping the writers; the snapshot as a whole is
// only approximately instantaneous, which is fine for a drift signal.
type Traffic struct {
	n     int
	bytes []atomic.Uint64 // dense mode; nil in sparse mode
	ops   []atomic.Uint64

	rows []trafficRow // sparse mode, one per source task; nil in dense mode

	// win is the program's default window (see ObservedWindowAffinity);
	// independent consumers create their own with NewWindow.
	win *TrafficWindow
}

// trafficRow holds one source task's sparse counters: a slot per
// destination, carved out of chunks that never move and found through
// an open-addressed index of slot pointers. Record probes the index
// without a lock; mu serializes inserts. A grow publishes a new index
// over the same slots, so no concurrent add is lost.
type trafficRow struct {
	mu   sync.Mutex
	tab  atomic.Pointer[rowIndex]
	free []trafficSlot // the current chunk's unused tail, under mu
}

// rowIndex is one generation of a row's index: linear probing from a
// Fibonacci hash, at most half full. order[:used] lists the slots in
// first-seen order, the positions of a window baseline.
type rowIndex struct {
	shift uint
	cells []atomic.Pointer[trafficSlot]
	order []*trafficSlot
	used  atomic.Int32
	// The first generation's storage: one object for a task's few
	// neighbours, what a hit reads (index, then slots) up front.
	cells0 [16]atomic.Pointer[trafficSlot]
	slots0 [8]trafficSlot
	order0 [8]*trafficSlot
}

// trafficSlot is one pair's counters; to is set before it is published.
type trafficSlot struct {
	to         int32
	bytes, ops atomic.Uint64
}

// newTraffic sizes a recorder for n tasks: dense counters up to
// comm.DenseOrderThreshold, per-row sparse tables above.
func newTraffic(n int) *Traffic {
	t := &Traffic{n: n}
	if n <= comm.DenseOrderThreshold {
		t.bytes = make([]atomic.Uint64, n*n)
		t.ops = make([]atomic.Uint64, n*n)
	} else {
		t.rows = make([]trafficRow, n)
	}
	t.win = t.NewWindow()
	return t
}

// Tasks returns the number of tasks the recorder covers.
func (t *Traffic) Tasks() int { return t.n }

// Sparse reports whether the recorder runs in sparse mode.
func (t *Traffic) Sparse() bool { return t != nil && t.rows != nil }

// Record accumulates one transfer of b bytes from task `from` to task
// `to`. Out-of-range or self pairs and unattributed endpoints
// (negative ids, e.g. remote peers without a task identity) are
// dropped — the recorder measures inter-task traffic only.
func (t *Traffic) Record(from, to, b int) {
	if t == nil || from == to || from < 0 || to < 0 || from >= t.n || to >= t.n {
		return
	}
	if t.rows == nil {
		i := from*t.n + to
		t.bytes[i].Add(uint64(b))
		t.ops[i].Add(1)
		return
	}
	r := &t.rows[from]
	_, s := r.tab.Load().probe(to)
	if s == nil {
		s = r.insert(to)
	}
	s.bytes.Add(uint64(b))
	s.ops.Add(1)
}

// probe returns the index cell of destination to and its slot, or the
// empty cell where it goes and nil; nils on a row that never recorded.
func (x *rowIndex) probe(to int) (*atomic.Pointer[trafficSlot], *trafficSlot) {
	if x == nil {
		return nil, nil
	}
	for h := uint64(to) * 0x9E3779B97F4A7C15 >> x.shift; ; h = (h + 1) & uint64(len(x.cells)-1) {
		if s := x.cells[h].Load(); s == nil || s.to == int32(to) {
			return &x.cells[h], s
		}
	}
}

// insert returns the slot of destination to, handing out a new one
// unless a concurrent insert did. Index and chunks double with the row:
// O(1) amortized per pair, however many neighbours the row has.
func (r *trafficRow) insert(to int) *trafficSlot {
	r.mu.Lock()
	defer r.mu.Unlock()
	x := r.tab.Load()
	if _, s := x.probe(to); s != nil {
		return s
	}
	k := len(x.slots())
	if x == nil || 2*(k+1) > len(x.cells) {
		grown := new(rowIndex)
		if x == nil {
			grown.cells, grown.order, r.free = grown.cells0[:], grown.order0[:], grown.slots0[:]
		} else {
			grown.cells, grown.order = make([]atomic.Pointer[trafficSlot], 4*k), make([]*trafficSlot, 2*k)
		}
		grown.shift = uint(65 - bits.Len(uint(len(grown.cells))))
		for j, s := range x.slots() {
			grown.order[j] = s
			cell, _ := grown.probe(int(s.to))
			cell.Store(s)
		}
		grown.used.Store(int32(k))
		r.tab.Store(grown)
		x = grown
	}
	if len(r.free) == 0 {
		r.free = make([]trafficSlot, k)
	}
	s := &r.free[0]
	r.free = r.free[1:]
	s.to = int32(to)
	x.order[k] = s
	cell, _ := x.probe(to)
	cell.Store(s)
	x.used.Store(int32(k + 1))
	return s
}

// slots returns the slots handed out, in first-seen order; none for a
// row that never recorded.
func (x *rowIndex) slots() []*trafficSlot {
	if x == nil {
		return nil
	}
	return x.order[:x.used.Load()]
}

// appendRow appends to cells, in column order, the slots of sparse row
// i whose bytes moved past *base, which it grows to the row's slots and
// advances to the counts read.
func (t *Traffic) appendRow(cells []windowCell, i int, base *[]uint64) []windowCell {
	slots := t.rows[i].tab.Load().slots()
	if len(*base) < len(slots) {
		*base = append(*base, make([]uint64, len(slots)-len(*base))...)
	}
	b, start := *base, len(cells)
	for k, s := range slots {
		cur := s.bytes.Load()
		if d := cur - b[k]; d != 0 {
			cells = append(cells, windowCell{from: int32(i), to: s.to, bytes: d})
			b[k] = cur
		}
	}
	// Column order; a task's few neighbours by insertion.
	if row := cells[start:]; len(row) > 16 {
		slices.SortFunc(row, func(a, b windowCell) int { return cmp.Compare(a.to, b.to) })
	} else {
		for k := 1; k < len(row); k++ {
			for m := k; m > 0 && row[m].to < row[m-1].to; m-- {
				row[m], row[m-1] = row[m-1], row[m]
			}
		}
	}
	return cells
}

// Affinity returns the cumulative observed communication: a dense
// matrix up to comm.DenseOrderThreshold tasks; above it what a window
// opened at the start returns — the O(nnz) sparse snapshot a 10k-task
// program's placement loop consumes.
func (t *Traffic) Affinity() comm.Affinity {
	if t.rows != nil {
		return t.NewWindow().NextAffinity()
	}
	a := comm.NewAffinity(t.n)
	for i := range t.bytes {
		if v := t.bytes[i].Load(); v != 0 {
			a.Set(i/t.n, i%t.n, float64(v))
		}
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
	// hashes: base[0] mirrors the flat n x n array in dense mode, base[i]
	// row i's slots (growing with them) in sparse mode.
	base [][]uint64
	// Scratch of NextAffinity, reused across calls: the epoch's nonzeros
	// are gathered first, row by row in column order, the snapshot
	// appended from them afterwards.
	cells  []windowCell
	rowNNZ []int
	spare  *comm.Sparse // handed back by Recycle, refilled by the next call
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
	if t.rows == nil {
		w.base = [][]uint64{make([]uint64, t.n*t.n)}
	} else {
		w.base = make([][]uint64, t.n)
	}
	return w
}

// NextAffinity returns the observed affinity of the epoch since the
// previous call (or since the start, on the first call) and advances
// the window baseline. The snapshot is the caller's own, frozen until
// the caller hands it back with Recycle, sized exactly: sorted sparse
// rows at any order and density. O(nnz) in sparse mode; dense mode
// reads its n² counters once.
func (w *TrafficWindow) NextAffinity() *comm.Sparse {
	w.mu.Lock()
	defer w.mu.Unlock()
	t := w.t
	cells := w.cells[:0]
	clear(w.rowNNZ)
	if t.rows == nil {
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
	for i := range t.rows {
		start := len(cells)
		cells = t.appendRow(cells, i, &w.base[i])
		w.rowNNZ[i] = len(cells) - start
	}
	w.cells = cells
	sp := w.spare
	w.spare = nil
	if sp != nil {
		sp.ResetSized(w.rowNNZ)
	} else {
		sp = comm.NewSparseSized(w.rowNNZ)
	}
	for _, c := range cells { // row-major, rows in column order
		sp.Append(int(c.from), int(c.to), float64(c.bytes))
	}
	return sp
}

// Recycle hands back a snapshot NextAffinity returned, for the next call
// to refill in place. The caller must hold no other reference to s.
func (w *TrafficWindow) Recycle(s *comm.Sparse) {
	if s == nil {
		return
	}
	w.mu.Lock()
	w.spare = s
	w.mu.Unlock()
}

// Totals returns the cumulative byte and operation counts over all
// pairs.
func (t *Traffic) Totals() (bytes, ops uint64) {
	for i := range t.bytes {
		bytes += t.bytes[i].Load()
		ops += t.ops[i].Load()
	}
	for i := range t.rows {
		for _, s := range t.rows[i].tab.Load().slots() {
			bytes += s.bytes.Load()
			ops += s.ops.Load()
		}
	}
	return
}

// Ops returns the cumulative transfer-operation count for the (from,
// to) pair.
func (t *Traffic) Ops(from, to int) uint64 {
	if from < 0 || to < 0 || from >= t.n || to >= t.n {
		return 0
	}
	if t.rows == nil {
		return t.ops[from*t.n+to].Load()
	}
	if _, s := t.rows[from].tab.Load().probe(to); s != nil {
		return s.ops.Load()
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
// it or ObservedWindow, both advancing the program's default window: a
// sparse snapshot, never n² cells.
func (p *Program) ObservedWindowAffinity() *comm.Sparse { return p.traffic.win.NextAffinity() }

// RecycleObservedWindow hands a snapshot ObservedWindowAffinity returned
// back to the default window (see TrafficWindow.Recycle).
func (p *Program) RecycleObservedWindow(s *comm.Sparse) { p.traffic.win.Recycle(s) }
