package orwlnet

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/placement"
	"orwlplace/internal/treematch"
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
// A remap frame is version, kind, then the body. Kind 0 is the full
// frame: machine, epoch, drift, assignment; epoch 0 with no assignment
// is the "nothing adopted yet" ack. Kind 1 is the partition delta (see
// the remapDelta layout below).

// Remap frame kinds (the byte after the version).
const (
	remapKindFull  = 0
	remapKindDelta = 1
)

// Validation bounds for the untrusted delta decoder. They are
// deliberately far above any deployed configuration (the default
// lease-task bound is 2896 and -max-lease-tasks raises it by orders of
// magnitude before these bite) while still keeping a hostile length
// prefix from forcing huge allocations.
const (
	// maxDeltaTasks bounds the task-space order a delta frame may claim.
	maxDeltaTasks = 1 << 21
	// maxDeltaPU bounds the PU / core indices a delta frame may carry.
	maxDeltaPU = 1 << 20
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
	dst, _, err := codec.PutMatrixField(dst, delta)
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
	if delta, _, _, err = getMatrix(rest, nil, maxRows, dst); err != nil {
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
// lease is wider than col's lease bound, so no window is either; maxRows
// (0 = none) lowers that row cap.
func mergeObservedReport(col *ctrlplane.Collector, src []byte, maxRows int) error {
	if rows := col.MaxLeaseTasks(); maxRows <= 0 || maxRows > rows {
		maxRows = rows
	}
	leaseID, seq, field, err := getReportHeader(src)
	switch {
	case err != nil:
		return err
	case len(field) == 0 || field[0] != matBaseValues:
		return col.ReportDecoded(leaseID, seq, func(dst *comm.Sparse) (*comm.Sparse, error) {
			_, _, delta, err := decodeObservedReport(src, maxRows, dst)
			return delta, err
		})
	case seq == 0:
		return fmt.Errorf("orwlnet: base-coded report of seq 0, which is never deduplicated")
	}
	return col.ReportBase(leaseID, seq, func(base *comm.Sparse, baseSeq uint64, dst *comm.Sparse) (*comm.Sparse, error) {
		return applyBaseValues(field[1:], base, baseSeq, maxRows, dst)
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
// value turned ±0, which would change the pattern.
func applyBaseValues(field []byte, base *comm.Sparse, baseSeq uint64, maxRows int, dst *comm.Sparse) (*comm.Sparse, error) {
	var want, nnz uint64
	stream, err := codec.GetUvarints(field, &want, &nnz)
	switch {
	case err != nil:
		return nil, err
	case want == 0:
		return nil, fmt.Errorf("orwlnet: base-coded report against base seq 0")
	case base == nil || want != baseSeq:
		return nil, fmt.Errorf("orwlnet: %w: the lease holds no base window of seq %d — resend the window in full", ErrUnknownMatrix, want)
	case base.Order() > maxRows:
		return nil, fmt.Errorf("orwlnet: observed report order %d exceeds the %d-row cap", base.Order(), maxRows)
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

// encodeRemapFrame frames one remap event (or the empty ack when ev is
// nil: epoch 0, no assignment). When allowDelta is set (the pusher
// proved the subscriber holds exactly the previous epoch) and the
// event is delta-eligible (it knows its moved-task set), both bodies
// are measured and the smaller ships. The returned bool reports whether
// the delta form was used.
func encodeRemapFrame(dst []byte, ev *ctrlplane.Remap, allowDelta bool) ([]byte, bool) {
	base := len(dst)
	full := append(dst, protoVersion, remapKindFull)
	if ev == nil {
		return codec.PutAssignment(putRemapHeader(full, "", 0, 0), nil), false
	}
	full = codec.PutAssignment(putRemapHeader(full, ev.Machine, ev.Epoch, ev.Drift), ev.Assignment)
	if !allowDelta {
		return full, false
	}
	d, err := buildRemapDelta(ev)
	if err != nil {
		return full, false // ineligible: the full frame is the fallback
	}
	delta := encodeRemapDelta(nil, d)
	if len(delta) >= len(full)-base {
		return full, false
	}
	return append(full[:base], delta...), true
}

// putRemapHeader appends what both remap frame kinds open with:
// machine, epoch, drift.
func putRemapHeader(dst []byte, machine string, epoch uint64, drift float64) []byte {
	dst = codec.PutString(dst, machine)
	dst = codec.PutUvarint(dst, epoch)
	return codec.PutUvarint(dst, codec.ZigzagFloat(drift))
}

// getRemapHeader reads what putRemapHeader wrote.
func getRemapHeader(src []byte) (machine string, epoch uint64, drift float64, rest []byte, err error) {
	if machine, rest, err = codec.GetString(src); err != nil {
		return "", 0, 0, nil, err
	}
	var raw uint64
	rest, err = codec.GetUvarints(rest, &epoch, &raw)
	return machine, epoch, codec.UnzigzagFloat(raw), rest, err
}

// decodeRemapFrameAny decodes a remap frame of either kind. Exactly one
// of the results is non-nil on success: a full frame yields the Remap,
// a delta frame yields the remapDelta the caller applies onto its
// cached assignment. A zero epoch in a full frame means "nothing
// adopted yet" (the subscription ack before the first adoption); its
// Remap has no assignment.
func decodeRemapFrameAny(src []byte) (*ctrlplane.Remap, *remapDelta, error) {
	rest, err := checkVersion(src)
	if err != nil {
		return nil, nil, err
	}
	if len(rest) < 1 {
		return nil, nil, fmt.Errorf("orwlnet: remap frame without a kind byte")
	}
	kind := rest[0]
	rest = rest[1:]
	switch kind {
	case remapKindFull:
	case remapKindDelta:
		d, err := decodeRemapDelta(rest)
		if err != nil {
			return nil, nil, err
		}
		return nil, d, nil
	default:
		return nil, nil, fmt.Errorf("orwlnet: unknown remap frame kind %d", kind)
	}
	ev := &ctrlplane.Remap{}
	if ev.Machine, ev.Epoch, ev.Drift, rest, err = getRemapHeader(rest); err != nil {
		return nil, nil, err
	}
	if ev.Assignment, _, err = codec.GetAssignment(rest, nil); err != nil {
		return nil, nil, err
	}
	if ev.Epoch > 0 && ev.Assignment == nil {
		return nil, nil, fmt.Errorf("orwlnet: remap epoch %d without an assignment", ev.Epoch)
	}
	return ev, nil, nil
}

// remapDelta is the decoded form of a delta frame: the remap
// header plus only what changed since the previous epoch. Applying it
// onto the assignment of epoch Epoch-1 reconstructs the full epoch
// Epoch assignment; it carries enough of the header (strategy, flags,
// mode, order, aux-slice presence) that any mismatch with the cached
// assignment is detected instead of silently mis-applied.
type remapDelta struct {
	Machine string
	Epoch   uint64
	Drift   float64

	// Order is the machine-global task-space size — must equal the
	// cached assignment's.
	Order    int
	Strategy string
	Flags    byte // the asgn* bits of the new assignment
	Mode     byte
	// Aux records which auxiliary per-task slices the assignment
	// carries (and hence which values each pair encodes).
	Aux byte

	// Parts lists the partition indices the reconciler re-placed
	// (EpochReport.RemappedPartitions).
	Parts []int

	// Tasks (ascending) and the index-aligned new placements of the
	// moved tasks. ControlPU/CoreOf are nil when Aux says the
	// assignment does not carry them.
	Tasks     []int
	ComputePU []int
	ControlPU []int
	CoreOf    []int
}

// Aux bits.
const (
	deltaAuxControl = 1 << 0
	deltaAuxCore    = 1 << 1
)

// buildRemapDelta derives the delta form of a remap event, or an error
// when the event cannot ship as a delta: no moved-task set (catch-up,
// initial adoption, non-adjacent epoch bookkeeping lives in the
// pusher), an unbound or irregular assignment, or values outside the
// wire bounds.
func buildRemapDelta(ev *ctrlplane.Remap) (*remapDelta, error) {
	a := ev.Assignment
	if a == nil || a.Unbound || ev.MovedTasks == nil {
		return nil, fmt.Errorf("orwlnet: remap is not delta-eligible")
	}
	order := len(a.ComputePU)
	if order == 0 || order > maxDeltaTasks {
		return nil, fmt.Errorf("orwlnet: delta order %d out of range", order)
	}
	if (len(a.ControlPU) != 0 && len(a.ControlPU) != order) ||
		(len(a.CoreOf) != 0 && len(a.CoreOf) != order) {
		return nil, fmt.Errorf("orwlnet: ragged assignment slices")
	}
	d := &remapDelta{
		Machine:  ev.Machine,
		Epoch:    ev.Epoch,
		Drift:    ev.Drift,
		Order:    order,
		Strategy: a.Strategy,
		Flags:    codec.AssignmentFlags(a),
		Mode:     byte(a.Mode),
	}
	if len(a.ControlPU) > 0 {
		d.Aux |= deltaAuxControl
	}
	if len(a.CoreOf) > 0 {
		d.Aux |= deltaAuxCore
	}
	d.Parts = append([]int(nil), ev.RemappedPartitions...)
	sort.Ints(d.Parts)
	for _, p := range d.Parts {
		if p < 0 || p >= order {
			return nil, fmt.Errorf("orwlnet: partition index %d out of range", p)
		}
	}
	tasks := append([]int(nil), ev.MovedTasks...)
	sort.Ints(tasks)
	prev := -1
	for _, t := range tasks {
		if t <= prev || t >= order {
			return nil, fmt.Errorf("orwlnet: moved task %d out of range or duplicated", t)
		}
		prev = t
		if pu := a.ComputePU[t]; pu < 0 || pu > maxDeltaPU {
			return nil, fmt.Errorf("orwlnet: compute PU %d out of wire range", pu)
		}
		d.Tasks = append(d.Tasks, t)
		d.ComputePU = append(d.ComputePU, a.ComputePU[t])
		if d.Aux&deltaAuxControl != 0 {
			if pu := a.ControlPU[t]; pu < -1 || pu > maxDeltaPU {
				return nil, fmt.Errorf("orwlnet: control PU %d out of wire range", pu)
			}
			d.ControlPU = append(d.ControlPU, a.ControlPU[t])
		}
		if d.Aux&deltaAuxCore != 0 {
			if c := a.CoreOf[t]; c < 0 || c > maxDeltaPU {
				return nil, fmt.Errorf("orwlnet: core index %d out of wire range", c)
			}
			d.CoreOf = append(d.CoreOf, a.CoreOf[t])
		}
	}
	return d, nil
}

// encodeRemapDelta frames a delta: version, kind, machine, epoch,
// drift, then order, strategy, flags, mode, aux, the remapped
// partition indices, and the moved pairs — task ids as ascending gaps,
// compute PU as uvarint, control PU zigzagged (for the -1 "OS-managed"
// marker), core index as uvarint.
func encodeRemapDelta(dst []byte, d *remapDelta) []byte {
	dst = putRemapHeader(append(dst, protoVersion, remapKindDelta), d.Machine, d.Epoch, d.Drift)
	dst = codec.PutUvarint(dst, uint64(d.Order))
	dst = codec.PutString(dst, d.Strategy)
	dst = append(dst, d.Flags, d.Mode, d.Aux)
	dst = codec.PutUvarint(dst, uint64(len(d.Parts)))
	for _, p := range d.Parts {
		dst = codec.PutUvarint(dst, uint64(p))
	}
	dst = codec.PutUvarint(dst, uint64(len(d.Tasks)))
	prev := -1
	for i, t := range d.Tasks {
		dst = codec.PutUvarint(dst, uint64(t-prev))
		prev = t
		dst = codec.PutUvarint(dst, uint64(d.ComputePU[i]))
		if d.Aux&deltaAuxControl != 0 {
			dst = codec.PutUvarint(dst, codec.Zigzag(int64(d.ControlPU[i])))
		}
		if d.Aux&deltaAuxCore != 0 {
			dst = codec.PutUvarint(dst, uint64(d.CoreOf[i]))
		}
	}
	return dst
}

// decodeRemapDelta parses a delta body (everything after the version
// and kind bytes). It is an untrusted decoder: every count is bounded,
// task ids must stay ascending inside the claimed order, and PU/core
// indices outside the wire bounds are rejected.
func decodeRemapDelta(src []byte) (*remapDelta, error) {
	d := &remapDelta{}
	var err error
	if d.Machine, d.Epoch, d.Drift, src, err = getRemapHeader(src); err != nil {
		return nil, err
	}
	if d.Epoch == 0 {
		return nil, fmt.Errorf("orwlnet: delta frame with epoch 0")
	}
	var u uint64
	if u, src, err = codec.GetUvarint(src); err != nil {
		return nil, err
	}
	if u == 0 || u > maxDeltaTasks {
		return nil, fmt.Errorf("orwlnet: delta order %d out of range", u)
	}
	d.Order = int(u)
	if d.Strategy, src, err = codec.GetString(src); err != nil {
		return nil, err
	}
	if len(src) < 3 {
		return nil, fmt.Errorf("orwlnet: truncated delta header")
	}
	d.Flags, d.Mode, d.Aux = src[0], src[1], src[2]
	src = src[3:]
	if d.Flags&codec.AssignUnbound != 0 {
		return nil, fmt.Errorf("orwlnet: delta frame for an unbound assignment")
	}
	if d.Aux&^(deltaAuxControl|deltaAuxCore) != 0 {
		return nil, fmt.Errorf("orwlnet: unknown delta aux bits %#x", d.Aux)
	}
	if u, src, err = codec.GetUvarint(src); err != nil {
		return nil, err
	}
	// Each entry costs at least one byte on the wire — the allocation
	// guard of every count below.
	if u > uint64(d.Order) || u > uint64(len(src)) {
		return nil, fmt.Errorf("orwlnet: delta claims %d partitions", u)
	}
	if n := int(u); n > 0 {
		d.Parts = make([]int, 0, n)
		prev := -1
		for i := 0; i < n; i++ {
			if u, src, err = codec.GetUvarint(src); err != nil {
				return nil, err
			}
			p := int(u)
			if p <= prev || p >= d.Order {
				return nil, fmt.Errorf("orwlnet: partition index %d out of order or range", p)
			}
			prev = p
			d.Parts = append(d.Parts, p)
		}
	}
	if u, src, err = codec.GetUvarint(src); err != nil {
		return nil, err
	}
	if u > uint64(d.Order) || u > uint64(len(src)) {
		return nil, fmt.Errorf("orwlnet: delta claims %d moved tasks", u)
	}
	n := int(u)
	d.Tasks = make([]int, 0, n)
	d.ComputePU = make([]int, 0, n)
	if d.Aux&deltaAuxControl != 0 {
		d.ControlPU = make([]int, 0, n)
	}
	if d.Aux&deltaAuxCore != 0 {
		d.CoreOf = make([]int, 0, n)
	}
	prev := -1
	for i := 0; i < n; i++ {
		if u, src, err = codec.GetUvarint(src); err != nil {
			return nil, err
		}
		if u == 0 {
			return nil, fmt.Errorf("orwlnet: zero task-id gap")
		}
		t := prev + int(u)
		if t < 0 || t >= d.Order {
			return nil, fmt.Errorf("orwlnet: moved task %d outside order %d", t, d.Order)
		}
		prev = t
		d.Tasks = append(d.Tasks, t)
		if u, src, err = codec.GetUvarint(src); err != nil {
			return nil, err
		}
		if u > maxDeltaPU {
			return nil, fmt.Errorf("orwlnet: compute PU %d out of wire range", u)
		}
		d.ComputePU = append(d.ComputePU, int(u))
		if d.Aux&deltaAuxControl != 0 {
			if u, src, err = codec.GetUvarint(src); err != nil {
				return nil, err
			}
			pu := codec.Unzigzag(u)
			if pu < -1 || pu > maxDeltaPU {
				return nil, fmt.Errorf("orwlnet: control PU %d out of wire range", pu)
			}
			d.ControlPU = append(d.ControlPU, int(pu))
		}
		if d.Aux&deltaAuxCore != 0 {
			if u, src, err = codec.GetUvarint(src); err != nil {
				return nil, err
			}
			if u > maxDeltaPU {
				return nil, fmt.Errorf("orwlnet: core index %d out of wire range", u)
			}
			d.CoreOf = append(d.CoreOf, int(u))
		}
	}
	return d, nil
}

// applyRemapDelta reconstructs the full assignment of epoch d.Epoch by
// applying the delta onto prev, the cached assignment of the previous
// epoch. Any structural mismatch — order, unboundness, aux-slice
// presence — is an error; the caller treats it as decode doubt and
// resyncs with a full frame. prev is not mutated.
func applyRemapDelta(prev *placement.Assignment, d *remapDelta) (*placement.Assignment, error) {
	if prev == nil || prev.Unbound {
		return nil, fmt.Errorf("orwlnet: no cached assignment to apply a delta onto")
	}
	if len(prev.ComputePU) != d.Order {
		return nil, fmt.Errorf("orwlnet: delta order %d does not match cached assignment order %d", d.Order, len(prev.ComputePU))
	}
	if (d.Aux&deltaAuxControl != 0) != (len(prev.ControlPU) == d.Order) {
		return nil, fmt.Errorf("orwlnet: delta control-PU presence does not match cached assignment")
	}
	if (d.Aux&deltaAuxCore != 0) != (len(prev.CoreOf) == d.Order) {
		return nil, fmt.Errorf("orwlnet: delta core presence does not match cached assignment")
	}
	a := prev.Clone() // copy-on-write: prev is shared and immutable
	a.Strategy = d.Strategy
	a.Unbound = d.Flags&codec.AssignUnbound != 0
	a.Oversubscribed = d.Flags&codec.AssignOversubscribed != 0
	a.Mode = treematch.ControlMode(d.Mode)
	for i, t := range d.Tasks {
		a.ComputePU[t] = d.ComputePU[i]
		if d.ControlPU != nil {
			a.ControlPU[t] = d.ControlPU[i]
		}
		if d.CoreOf != nil {
			a.CoreOf[t] = d.CoreOf[i]
		}
	}
	return a, nil
}

// remap converts the delta plus its reconstructed assignment into the
// event delivered to watchers: a full Remap that also knows which
// tasks moved, so the facade can re-bind in O(changed).
func (d *remapDelta) remap(a *placement.Assignment) *ctrlplane.Remap {
	return &ctrlplane.Remap{
		Machine:            d.Machine,
		Epoch:              d.Epoch,
		Drift:              d.Drift,
		Assignment:         a,
		MovedTasks:         append([]int(nil), d.Tasks...),
		RemappedPartitions: append([]int(nil), d.Parts...),
		Delta:              true,
	}
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
