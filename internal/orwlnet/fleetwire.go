package orwlnet

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/placement"
)

// Codecs of the fleet control-plane frames. All start with the
// version byte like every placement payload.
//
//	opFleetLease      req:  version, machine, peer, base, count,
//	                        ownership token (0 = unowned)
//	                  resp: lease id
//	opObservedReport  req:  version, lease id, seq, matrix (compact, or
//	                        base-coded: matBaseValues)
//	                  resp: empty (ErrUnknownMatrix: no such base, resend
//	                        the window in full under the same seq)
//	opWatchRemaps     req:  version, machine, since-epoch
//	                  resp: remap frame (the catch-up ack) — and every
//	                        later adoption arrives as an unsolicited
//	                        frame with the same call id
//
// A remap frame is version, kind, machine, epoch, drift, order, the
// remapped partitions and the moved tasks (each a count, then ascending
// gaps), then the assignment (codec.PutAssignment). Kind 0 is complete:
// the whole assignment of order tasks and empty lists; epoch 0, order 0
// and no assignment is the "nothing adopted yet" ack. Kind 1 is a delta
// onto epoch-1: its assignment holds only the moved tasks' placements,
// index-aligned with the moved list.

// Remap frame kinds (the byte after the version).
const (
	remapKindComplete = 0
	remapKindDelta    = 1
)

// Validation bounds of the untrusted remap decoder. They are
// deliberately far above any deployed configuration (the default
// lease-task bound is 2896 and -max-lease-tasks raises it by orders of
// magnitude before these bite) while still keeping a hostile length
// prefix from forcing huge allocations.
const (
	// maxRemapTasks bounds the task-space order a remap frame may claim.
	maxRemapTasks = 1 << 21
	// maxRemapPU bounds the PU / core indices a remap frame may carry.
	maxRemapPU = 1 << 20
)

func encodeFleetLeaseRequest(dst []byte, machine, peer string, base, count int, token uint64) ([]byte, error) {
	if err := codec.CheckStrings(machine, peer); err != nil {
		return nil, err
	}
	dst = append(dst, protoVersion)
	dst = codec.PutString(dst, machine)
	dst = codec.PutString(dst, peer)
	dst = codec.PutUvarint(dst, uint64(base))
	dst = codec.PutUvarint(dst, uint64(count))
	return codec.PutUvarint(dst, token), nil
}

func decodeFleetLeaseRequest(src []byte) (machine, peer string, base, count int, token uint64, err error) {
	rest, err := checkVersion(src)
	if err != nil {
		return "", "", 0, 0, 0, err
	}
	if machine, rest, err = codec.GetString(rest); err != nil {
		return "", "", 0, 0, 0, err
	}
	if peer, rest, err = codec.GetString(rest); err != nil {
		return "", "", 0, 0, 0, err
	}
	var b, c uint64
	if _, err = codec.GetUvarints(rest, &b, &c, &token); err != nil {
		return "", "", 0, 0, 0, err
	}
	if base, count = int(b), int(c); base < 0 || count < 0 {
		return "", "", 0, 0, 0, fmt.Errorf("orwlnet: lease range [%d,+%d) overflows", base, count)
	}
	return machine, peer, base, count, token, nil
}

func encodeFleetLeaseResponse(dst []byte, leaseID uint64) []byte {
	return codec.PutUvarint(dst, leaseID)
}

func decodeFleetLeaseResponse(src []byte) (uint64, error) {
	id, _, err := codec.GetUvarint(src)
	return id, err
}

// encodeObservedReport frames one observed-traffic window delta as a
// run-length matrix field, straight from the affinity: a sparse window
// is never densified. A window over the decoder's cell cap is refused
// with a *codec.CellsError: no daemon would accept it.
func encodeObservedReport(dst []byte, leaseID, seq uint64, delta comm.Affinity) ([]byte, error) {
	if comm.NilAffinity(delta) {
		return nil, fmt.Errorf("orwlnet: nil observed window")
	}
	dst = append(dst, protoVersion)
	dst = codec.PutUvarint(dst, leaseID)
	dst = codec.PutUvarint(dst, seq)
	dst, _, err := codec.PutMatrixField(dst, delta, false)
	return dst, err
}

// getReportHeader reads a report frame's version, lease id and seq,
// leaving its matrix field.
func getReportHeader(src []byte) (leaseID, seq uint64, field []byte, err error) {
	if field, err = checkVersion(src); err != nil {
		return 0, 0, nil, err
	}
	field, err = codec.GetUvarints(field, &leaseID, &seq)
	return leaseID, seq, field, err
}

// decodeObservedReport decodes a full report frame, refusing an order
// above maxRows before anything is sized by it. The matrix field goes
// through getMatrix, the decoder placement frames use, into dst when it
// is not nil: a window is mostly zeros, and the collector merges what it
// is given in O(nnz).
//
// A fingerprint reference is refused: the one matrix a report may name
// is its lease's base, in a base-coded frame (mergeObservedReport).
func decodeObservedReport(src []byte, maxRows int, dst *comm.Sparse) (leaseID, seq uint64, delta *comm.Sparse, err error) {
	leaseID, seq, rest, err := getReportHeader(src)
	if err != nil {
		return 0, 0, nil, err
	}
	if delta, _, _, err = getMatrix(rest, nil, maxRows, dst, false); err != nil {
		var oe *codec.OrderError
		if errors.As(err, &oe) {
			err = fmt.Errorf("orwlnet: observed report order %d exceeds the %d-row cap", oe.Order, maxRows)
		}
		return 0, 0, nil, err
	}
	if delta == nil {
		return 0, 0, nil, fmt.Errorf("orwlnet: observed report without a matrix")
	}
	return leaseID, seq, delta, nil
}

// mergeObservedReport merges a report frame into col: a full frame
// decodes outside the collector's lock, a base-coded one under it. No
// lease is wider than col's lease bound, so no window is either: the
// bound is the report's row cap.
func mergeObservedReport(col *ctrlplane.Collector, src []byte) error {
	leaseID, seq, field, err := getReportHeader(src)
	switch {
	case err != nil:
		return err
	case len(field) == 0 || field[0] != matBaseValues:
		return col.ReportDecoded(leaseID, seq, func(dst *comm.Sparse) (*comm.Sparse, error) {
			_, _, delta, err := decodeObservedReport(src, col.MaxLeaseTasks(), dst)
			return delta, err
		})
	case seq == 0:
		return fmt.Errorf("orwlnet: base-coded report of seq 0, which is never deduplicated")
	}
	return col.ReportBase(leaseID, seq, func(base *comm.Sparse, baseSeq uint64, dst *comm.Sparse) (*comm.Sparse, error) {
		return applyBaseValues(field[1:], base, baseSeq, dst)
	})
}

// matBaseValues is the report-only matrix mode of a window with exactly
// the nonzero pattern of its lease's last acknowledged window, the base.
// It carries the base's seq, its nonzero count, then the values in
// pattern order: a zero run of values equal to the base's, the
// byte-reversed XOR of the next value's bits with its base bits, and so
// on, ending on a zero run. A steady window is one zero run.
const matBaseValues = 4

// reportBase is a stub's copy of a lease's last acknowledged window: its
// seq (0 = no base) and its nonzeros row by row, as columns and bits.
// next holds the bits of the window last base-coded against it.
type reportBase struct {
	seq         uint64
	rowEnd      []int // row i holds cols/words[rowEnd[i-1]:rowEnd[i]]
	cols        []int
	words, next []uint64
}

// set makes a, acknowledged under seq, the base.
func (b *reportBase) set(seq uint64, a comm.Affinity) {
	b.rowEnd, b.cols, b.words = b.rowEnd[:0], b.cols[:0], b.words[:0]
	add := func(j int, v float64) {
		b.cols = append(b.cols, j)
		b.words = append(b.words, math.Float64bits(v))
	}
	for i := 0; i < a.Order(); i++ {
		a.ForEachRow(i, add)
		b.rowEnd = append(b.rowEnd, len(b.cols))
	}
	b.seq = seq
}

// encodeBaseReport frames delta base-coded against b, or reports false
// when b holds no base or delta's pattern is not b's: the walk gives up
// at the first row whose columns differ.
func encodeBaseReport(dst []byte, leaseID, seq uint64, delta comm.Affinity, b *reportBase) ([]byte, bool) {
	if b.seq == 0 || seq == 0 || comm.NilAffinity(delta) || delta.Order() != len(b.rowEnd) {
		return dst, false
	}
	start := len(dst)
	dst = codec.PutUvarint(codec.PutUvarint(append(dst, protoVersion), leaseID), seq)
	dst = codec.PutUvarint(codec.PutUvarint(append(dst, matBaseValues), b.seq), uint64(len(b.words)))
	var run uint64
	k, end, same := 0, 0, true
	b.next = b.next[:0]
	cell := func(j int, v float64) {
		switch u := math.Float64bits(v); {
		case !same:
		case k == end || b.cols[k] != j:
			same = false
		case u == b.words[k]:
			b.next, run, k = append(b.next, u), run+1, k+1
		default:
			dst = codec.PutUvarint(codec.PutUvarint(dst, run), bits.ReverseBytes64(u^b.words[k]))
			b.next, run, k = append(b.next, u), 0, k+1
		}
	}
	for i := 0; i < len(b.rowEnd) && same; i++ {
		end = b.rowEnd[i]
		delta.ForEachRow(i, cell)
		same = same && k == end
	}
	if !same {
		return dst[:start], false
	}
	return codec.PutUvarint(dst, run), true
}

// applyBaseValues returns the window a matBaseValues field (after its
// mode byte) describes against base, the lease's window of seq baseSeq
// (nil when none; another base is ErrUnknownMatrix): base itself for one
// zero run, else dst refilled. The field is validated in full before dst
// is written: runs in range, exactly the base's count of values, and no
// value turned ±0, which would change the pattern. The base was merged
// under the row cap, so the window fits it too.
func applyBaseValues(field []byte, base *comm.Sparse, baseSeq uint64, dst *comm.Sparse) (*comm.Sparse, error) {
	var want, nnz uint64
	stream, err := codec.GetUvarints(field, &want, &nnz)
	switch {
	case err != nil:
		return nil, err
	case want == 0:
		return nil, fmt.Errorf("orwlnet: base-coded report against base seq 0")
	case base == nil || want != baseSeq:
		return nil, fmt.Errorf("orwlnet: %w: the lease holds no base window of seq %d — resend the window in full", ErrUnknownMatrix, want)
	case nnz != uint64(base.NNZ()):
		return nil, fmt.Errorf("orwlnet: base-coded report claims %d values, its base holds %d", nnz, base.NNZ())
	}
	if run, _, err := codec.GetUvarint(stream); err == nil && run == nnz {
		return base, nil // steady: no value changed
	}
	// walk runs the stream beside the base's cells, into dst if not nil.
	walk := func(dst *comm.Sparse) (err error) {
		src, k, at, word := stream, uint64(0), uint64(0), uint64(0)
		next := func(from uint64) {
			var run uint64
			if run, src, err = codec.GetUvarint(src); err == nil && run > nnz-from {
				err = fmt.Errorf("orwlnet: base-coded zero run %d at value %d overruns the %d values", run, from, nnz)
			}
			if at = from + run; err == nil && at < nnz {
				word, src, err = codec.GetUvarint(src)
			}
		}
		row := 0
		cell := func(j int, v float64) {
			if err == nil && k == at {
				if v = math.Float64frombits(math.Float64bits(v) ^ bits.ReverseBytes64(word)); v == 0 {
					err = fmt.Errorf("orwlnet: base-coded value %d comes out zero: a window of another pattern ships in full", k)
				} else {
					next(k + 1)
				}
			}
			if dst != nil {
				dst.Append(row, j, v)
			}
			k++
		}
		if next(0); dst != nil {
			dst.Reset(base.Order())
		}
		for ; row < base.Order() && err == nil; row++ {
			base.ForEachRow(row, cell)
		}
		return err
	}
	if err := walk(nil); err != nil {
		return nil, err
	}
	return dst, walk(dst)
}

func encodeWatchRequest(dst []byte, machine string, sinceEpoch uint64) ([]byte, error) {
	if err := codec.CheckStrings(machine); err != nil {
		return nil, err
	}
	dst = append(dst, protoVersion)
	dst = codec.PutString(dst, machine)
	return codec.PutUvarint(dst, sinceEpoch), nil
}

func decodeWatchRequest(src []byte) (machine string, sinceEpoch uint64, err error) {
	rest, err := checkVersion(src)
	if err != nil {
		return "", 0, err
	}
	if machine, rest, err = codec.GetString(rest); err != nil {
		return "", 0, err
	}
	sinceEpoch, _, err = codec.GetUvarint(rest)
	return machine, sinceEpoch, err
}

// encodeRemapFrame frames one remap event, or the empty ack when ev is
// nil. onto says the subscriber holds epoch ev.Epoch-1: an event that
// binds and knows its moved tasks, fewer than half the order, then
// ships as a delta, anything else as a complete frame: a delta spends a
// gap byte per moved task besides its placement, so once most tasks
// move it outgrows the complete frame.
func encodeRemapFrame(dst []byte, ev *ctrlplane.Remap, onto bool) []byte {
	if ev == nil {
		ev = &ctrlplane.Remap{}
	}
	a := ev.Assignment
	if !onto || ev.MovedTasks == nil || a == nil || a.Unbound || 2*len(ev.MovedTasks) >= len(a.ComputePU) {
		return codec.PutAssignment(putRemapHead(dst, remapKindComplete, ev), a)
	}
	pick := func(s []int) []int {
		if len(s) == 0 {
			return nil
		}
		out := make([]int, len(ev.MovedTasks))
		for i, t := range ev.MovedTasks {
			out[i] = s[t]
		}
		return out
	}
	moved := &placement.Assignment{Strategy: a.Strategy, Oversubscribed: a.Oversubscribed, Mode: a.Mode,
		ComputePU: pick(a.ComputePU), ControlPU: pick(a.ControlPU), CoreOf: pick(a.CoreOf)}
	return codec.PutAssignment(putRemapHead(dst, remapKindDelta, ev), moved)
}

// putRemapHead appends ev's remap frame up to its assignment; a
// complete frame lists no partitions and no moved tasks.
func putRemapHead(dst []byte, kind byte, ev *ctrlplane.Remap) []byte {
	var order int
	if ev.Assignment != nil {
		order = len(ev.Assignment.ComputePU)
	}
	dst = codec.PutString(append(dst, protoVersion, kind), ev.Machine)
	dst = codec.PutUvarint(codec.PutUvarint(dst, ev.Epoch), codec.ZigzagFloat(ev.Drift))
	dst = codec.PutUvarint(dst, uint64(order))
	if kind == remapKindComplete {
		return append(dst, 0, 0)
	}
	return putAscending(putAscending(dst, ev.RemappedPartitions), ev.MovedTasks)
}

// putAscending appends an ascending list as its count, then the gaps.
func putAscending(dst []byte, s []int) []byte {
	dst = codec.PutUvarint(dst, uint64(len(s)))
	prev := -1
	for _, v := range s {
		dst = codec.PutUvarint(dst, uint64(v-prev))
		prev = v
	}
	return dst
}

// getAscending reads what putAscending wrote: strictly ascending indices
// below order, nil when there are none. Each costs a byte at least, the
// allocation guard of the count.
func getAscending(src []byte, order int, what string) ([]int, []byte, error) {
	n, src, err := codec.GetUvarint(src)
	switch {
	case err != nil:
		return nil, nil, err
	case n > uint64(order) || n > uint64(len(src)):
		return nil, nil, fmt.Errorf("orwlnet: remap frame claims %d %ss in order %d", n, what, order)
	case n == 0:
		return nil, src, nil
	}
	out := make([]int, n)
	prev := -1
	for i := range out {
		var gap uint64
		if gap, src, err = codec.GetUvarint(src); err != nil {
			return nil, nil, err
		}
		if gap == 0 || gap >= uint64(order-prev) {
			return nil, nil, fmt.Errorf("orwlnet: %s %d out of order or range in order %d", what, uint64(prev)+gap, order)
		}
		prev += int(gap)
		out[i] = prev
	}
	return out, src, nil
}

// remapFrame is a decoded remap frame: the event it carries and its
// task-space order. A delta's Assignment holds only the moved tasks'
// placements, index-aligned with MovedTasks, until apply folds it.
type remapFrame struct {
	ctrlplane.Remap
	order int
}

// decodeRemapFrame reads a remap frame of either kind. It is an
// untrusted decoder: every count is bounded by the order and the bytes
// left, indices ascend inside the order, PUs and cores stay in the wire
// range, auxiliary slices are absent or as long as the compute slice, a
// complete frame lists nothing, and a delta names epoch 1 or later and a
// bound assignment.
func decodeRemapFrame(src []byte) (*remapFrame, error) {
	rest, err := checkVersion(src)
	switch {
	case err != nil:
		return nil, err
	case len(rest) == 0:
		return nil, fmt.Errorf("orwlnet: remap frame without a kind byte")
	case rest[0] > remapKindDelta:
		return nil, fmt.Errorf("orwlnet: unknown remap frame kind %d", rest[0])
	}
	f := &remapFrame{Remap: ctrlplane.Remap{Delta: rest[0] == remapKindDelta}}
	if f.Machine, rest, err = codec.GetString(rest[1:]); err != nil {
		return nil, err
	}
	var drift, order uint64
	if rest, err = codec.GetUvarints(rest, &f.Epoch, &drift, &order); err != nil {
		return nil, err
	}
	if order > maxRemapTasks {
		return nil, fmt.Errorf("orwlnet: remap order %d out of range", order)
	}
	f.Drift, f.order = codec.UnzigzagFloat(drift), int(order)
	if f.RemappedPartitions, rest, err = getAscending(rest, f.order, "partition"); err != nil {
		return nil, err
	}
	if f.MovedTasks, rest, err = getAscending(rest, f.order, "moved task"); err != nil {
		return nil, err
	}
	if f.Assignment, _, err = codec.GetAssignment(rest); err != nil {
		return nil, err
	}
	n := f.order
	switch a := f.Assignment; {
	case !f.Delta && (f.RemappedPartitions != nil || f.MovedTasks != nil):
		return nil, fmt.Errorf("orwlnet: complete remap frame lists %d partitions and %d moved tasks", len(f.RemappedPartitions), len(f.MovedTasks))
	case !f.Delta && a == nil && f.Epoch > 0:
		return nil, fmt.Errorf("orwlnet: remap epoch %d without an assignment", f.Epoch)
	case f.Delta && f.Epoch == 0:
		return nil, fmt.Errorf("orwlnet: delta frame with epoch 0")
	case f.Delta && (a == nil || a.Unbound):
		return nil, fmt.Errorf("orwlnet: delta frame without a bound assignment")
	case f.Delta:
		n = len(f.MovedTasks)
	}
	return f, checkPlacements(f.Assignment, n)
}

// checkPlacements refuses an assignment that does not place exactly n
// tasks inside the wire range: compute PUs and cores in [0, maxRemapPU],
// control PUs in [-1, maxRemapPU] (-1 leaves them to the OS), and
// control and core slices absent or n long. A nil assignment places
// none.
func checkPlacements(a *placement.Assignment, n int) error {
	switch {
	case a == nil && n == 0:
		return nil
	case a == nil:
		return fmt.Errorf("orwlnet: remap frame of order %d without an assignment", n)
	case len(a.ComputePU) != n:
		return fmt.Errorf("orwlnet: remap assignment places %d tasks, the frame %d", len(a.ComputePU), n)
	}
	for _, s := range []struct {
		name string
		vals []int
		min  int
	}{{"compute PU", a.ComputePU, 0}, {"control PU", a.ControlPU, -1}, {"core", a.CoreOf, 0}} {
		if len(s.vals) != 0 && len(s.vals) != n {
			return fmt.Errorf("orwlnet: remap assignment holds %d %ss for %d tasks", len(s.vals), s.name, n)
		}
		for _, v := range s.vals {
			if v < s.min || v > maxRemapPU {
				return fmt.Errorf("orwlnet: %s %d out of wire range", s.name, v)
			}
		}
	}
	return nil
}

// apply returns the event f delivers to a subscriber holding cur, the
// assignment of epoch last: a complete frame as it stands, a delta
// folded onto cur. Assignments are immutable shared values, so the fold
// shares each of cur's slices that no moved task changes and copies
// only the others. A delta that does not fold (onto another epoch,
// another order, or control or core slices cur lacks or has) is an
// error: the caller resyncs with a complete frame.
func (f *remapFrame) apply(cur *placement.Assignment, last uint64) (*ctrlplane.Remap, error) {
	if !f.Delta {
		return &f.Remap, nil
	}
	d := f.Assignment
	switch {
	case f.Epoch != last+1 || cur == nil || cur.Unbound:
		return nil, fmt.Errorf("orwlnet: delta onto epoch %d, the subscriber holds epoch %d", f.Epoch-1, last)
	case cur.Entities() != f.order:
		return nil, fmt.Errorf("orwlnet: delta order %d does not match cached assignment order %d", f.order, cur.Entities())
	case len(f.MovedTasks) > 0 && ((len(d.ControlPU) > 0) != (len(cur.ControlPU) > 0) || (len(d.CoreOf) > 0) != (len(cur.CoreOf) > 0)):
		return nil, fmt.Errorf("orwlnet: delta control or core slices do not match the cached assignment")
	}
	a := *cur
	a.Strategy, a.Oversubscribed, a.Mode = d.Strategy, d.Oversubscribed, d.Mode
	a.ComputePU = fold(cur.ComputePU, d.ComputePU, f.MovedTasks)
	a.ControlPU = fold(cur.ControlPU, d.ControlPU, f.MovedTasks)
	a.CoreOf = fold(cur.CoreOf, d.CoreOf, f.MovedTasks)
	ev := f.Remap
	ev.Assignment = &a
	return &ev, nil
}

// fold returns cur with moved[i] set to vals[i] for every i: cur itself
// when that changes no entry (or vals is empty), else a copy.
func fold(cur, vals, moved []int) []int {
	for i, t := range moved[:len(vals)] {
		if cur[t] != vals[i] {
			out := slices.Clone(cur)
			for j := i; j < len(vals); j++ {
				out[moved[j]] = vals[j]
			}
			return out
		}
	}
	return cur
}

// FleetStats codec (the last stats payload field).

func putFleetStats(dst []byte, st placement.FleetStats) []byte {
	return codec.PutUint64s(dst, st.ReportsReceived, st.PeersTracked, st.RemapsPushed, st.StalePeersEvicted,
		st.Watchers, st.ReportsThrottled, st.LeaseConflicts, st.DeltaPushes, st.FullPushes)
}

func getFleetStats(src []byte) (placement.FleetStats, []byte, error) {
	var st placement.FleetStats
	src, err := codec.GetUint64s(src, &st.ReportsReceived, &st.PeersTracked, &st.RemapsPushed, &st.StalePeersEvicted,
		&st.Watchers, &st.ReportsThrottled, &st.LeaseConflicts, &st.DeltaPushes, &st.FullPushes)
	return st, src, err
}
