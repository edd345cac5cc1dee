package orwlnet

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"

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
//	opObservedReport  req:  version, lease id, seq, matrix (compact)
//	                  resp: empty
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

func encodeFleetLeaseRequest(dst []byte, machine, peer string, base, count int, token uint64) []byte {
	dst = append(dst, protoVersion)
	dst = putString(dst, machine)
	dst = putString(dst, peer)
	dst = putUvarint(dst, uint64(base))
	dst = putUvarint(dst, uint64(count))
	return putUvarint(dst, token)
}

func decodeFleetLeaseRequest(src []byte) (machine, peer string, base, count int, token uint64, err error) {
	rest, err := checkVersion(src)
	if err != nil {
		return "", "", 0, 0, 0, err
	}
	if machine, rest, err = getString(rest); err != nil {
		return "", "", 0, 0, 0, err
	}
	if peer, rest, err = getString(rest); err != nil {
		return "", "", 0, 0, 0, err
	}
	var u uint64
	if u, rest, err = getUvarint(rest); err != nil {
		return "", "", 0, 0, 0, err
	}
	base = int(u)
	if u, rest, err = getUvarint(rest); err != nil {
		return "", "", 0, 0, 0, err
	}
	count = int(u)
	if base < 0 || count < 0 {
		return "", "", 0, 0, 0, fmt.Errorf("orwlnet: lease range [%d,+%d) overflows", base, count)
	}
	if token, _, err = getUvarint(rest); err != nil {
		return "", "", 0, 0, 0, err
	}
	return machine, peer, base, count, token, nil
}

func encodeFleetLeaseResponse(dst []byte, leaseID uint64) []byte {
	return putUvarint(dst, leaseID)
}

func decodeFleetLeaseResponse(src []byte) (uint64, error) {
	id, _, err := getUvarint(src)
	return id, err
}

// encodeObservedReport frames one observed-traffic window delta in the
// compact matrix encoding (sparse or dense, whichever is smaller),
// straight from the affinity: a sparse window is never densified.
func encodeObservedReport(dst []byte, leaseID, seq uint64, delta comm.Affinity) ([]byte, error) {
	if comm.NilAffinity(delta) {
		return nil, fmt.Errorf("orwlnet: nil observed window")
	}
	dst = append(dst, protoVersion)
	dst = putUvarint(dst, leaseID)
	dst = putUvarint(dst, seq)
	if m, ok := delta.(*comm.Matrix); ok {
		// The dense scan as is — it also keeps -0 cells bit-exact, which
		// no sparse affinity holds.
		return putMatrixCompact(dst, m), nil
	}
	return putAffinityCompact(dst, delta), nil
}

// putAffinityCompact emits the bytes putMatrixCompact emits for
// a.Dense() without visiting a zero cell: it walks the row-sorted
// nonzeros, a run extends while the next one is the adjacent cell of
// the same row with the same bits, and a run's zero-gap is its cell
// index minus the end of the previous run.
func putAffinityCompact(dst []byte, a comm.Affinity) []byte {
	n := a.Order()
	start := len(dst)
	dst = putUvarint(append(dst, matSparse), uint64(n))
	// The run count precedes the triplets but is known only after the
	// walk: leave room for the longest varint, close the gap at the end.
	hole := len(dst)
	dst = append(dst, make([]byte, binary.MaxVarintLen64)...)
	var runs, runBits uint64
	var end, runAt, runCol, runLen int // end: one past the previous run
	flush := func() {
		if runLen > 0 {
			dst = putUvarint(dst, uint64(runAt-end))
			dst = putUvarint(dst, uint64(runLen))
			dst = putUvarint(dst, bits.ReverseBytes64(runBits))
			end, runLen = runAt+runLen, 0
			runs++
		}
	}
	for i := 0; i < n; i++ {
		a.ForEachRow(i, func(j int, v float64) {
			if b := math.Float64bits(v); runLen == 0 || j != runCol+runLen || b != runBits {
				flush()
				runAt, runCol, runBits = i*n+j, j, b
			}
			runLen++
		})
		flush() // a run never crosses a row boundary
	}
	var count [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(count[:], runs)
	if len(dst)-hole-len(count)+uvarintLen(uint64(n))+k >= 8+8*n*n {
		// Dense is no larger: the choice putMatrixCompact makes.
		return putMatrixDenseBody(append(dst[:start], matDense), a.Dense())
	}
	copy(dst[hole:], count[:k])
	return append(dst[:hole+k], dst[hole+len(count):]...)
}

// decodeObservedReport decodes a report frame, refusing an order above
// maxRows (0 = only the codec's own limit) before anything is sized by
// it. A sparse body holding at most n²/8 nonzeros decodes sparse at any
// order — a window is mostly zeros, and the collector merges what it is
// given in O(nnz); anything else decodes dense.
//
// Memory bound: no frame makes it allocate more than the 8·n² bytes of
// a dense order-n matrix. A dense body is that long itself; a sparse
// body is validated in full — every run, and the cell count they claim
// (a single triplet can claim all n²) — before the target exists.
//
// Fingerprint-only references are refused: a report is a one-shot
// delta, never worth a round trip to resolve.
func decodeObservedReport(src []byte, maxRows int) (leaseID, seq uint64, delta comm.Affinity, err error) {
	rest, err := checkVersion(src)
	if err != nil {
		return 0, 0, nil, err
	}
	if leaseID, rest, err = getUvarint(rest); err != nil {
		return 0, 0, nil, err
	}
	if seq, rest, err = getUvarint(rest); err != nil {
		return 0, 0, nil, err
	}
	// Peek the order first, whichever mode carries it.
	var n int
	var order, runs uint64
	var body []byte
	sparse := len(rest) > 0 && rest[0] == matSparse
	if sparse {
		n, runs, body, err = getSparseHeader(rest[1:])
		order = uint64(n)
	} else if len(rest) > 0 && rest[0] == matDense {
		order, _, err = getUint64(rest[1:])
	}
	if err == nil && maxRows > 0 && order > uint64(maxRows) {
		err = fmt.Errorf("orwlnet: observed report order %d exceeds the %d-row cap", order, maxRows)
	}
	if err != nil {
		return 0, 0, nil, err
	}
	if !sparse {
		// Every other mode is a placement payload's matrix field, read
		// without a seen-matrix table.
		m, _, _, err := getMatrix(rest, nil)
		if err == nil && m == nil {
			err = fmt.Errorf("orwlnet: observed report without a matrix")
		}
		if err != nil {
			return 0, 0, nil, err
		}
		return leaseID, seq, m, nil
	}
	rowNNZ := make([]int, n)
	nnz := 0
	if _, err = walkSparseRuns(body, runs, n, func(row, _, length int, _ float64) {
		nnz += length
		rowNNZ[row] += length
	}); err != nil {
		return 0, 0, nil, err
	}
	if nnz > n*n/8 {
		delta = comm.NewMatrix(n)
	} else {
		delta = comm.NewSparseSized(rowNNZ)
	}
	walkSparseRuns(body, runs, n, func(row, col, length int, v float64) { // validated above
		for k := col; k < col+length; k++ {
			delta.Set(row, k, v)
		}
	})
	return leaseID, seq, delta, nil
}

func encodeWatchRequest(dst []byte, machine string, sinceEpoch uint64) []byte {
	dst = append(dst, protoVersion)
	dst = putString(dst, machine)
	return putUvarint(dst, sinceEpoch)
}

func decodeWatchRequest(src []byte) (machine string, sinceEpoch uint64, err error) {
	rest, err := checkVersion(src)
	if err != nil {
		return "", 0, err
	}
	if machine, rest, err = getString(rest); err != nil {
		return "", 0, err
	}
	if sinceEpoch, _, err = getUvarint(rest); err != nil {
		return "", 0, err
	}
	return machine, sinceEpoch, nil
}

// encodeRemapFrame frames one remap event (or the empty ack when ev is
// nil: epoch 0, no assignment). When allowDelta is set (the pusher
// proved the subscriber holds exactly the previous epoch) and the
// event is delta-eligible (it knows its moved-task set), both bodies
// are measured and the smaller ships — the same choice rule as the
// sparse/dense matrix encoding. The returned bool reports whether the
// delta form was used.
func encodeRemapFrame(dst []byte, ev *ctrlplane.Remap, allowDelta bool) ([]byte, bool) {
	base := len(dst)
	full := append(dst, protoVersion, remapKindFull)
	if ev == nil {
		full = putString(full, "")
		full = putUvarint(full, 0)
		full = putUvarint(full, zigzagFloat(0))
		return putAssignment(full, nil), false
	}
	full = putString(full, ev.Machine)
	full = putUvarint(full, ev.Epoch)
	full = putUvarint(full, zigzagFloat(ev.Drift))
	full = putAssignment(full, ev.Assignment)
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

// decodeRemapFrame decodes a full remap frame. A zero epoch means
// "nothing adopted yet" (the subscription ack before the first
// adoption); its Remap has no assignment. Delta frames are an error
// here — callers that can apply them use decodeRemapFrameAny.
func decodeRemapFrame(src []byte) (*ctrlplane.Remap, error) {
	ev, d, err := decodeRemapFrameAny(src)
	if err != nil {
		return nil, err
	}
	if d != nil {
		return nil, fmt.Errorf("orwlnet: remap delta frame where a full frame was expected")
	}
	return ev, nil
}

// decodeRemapFrameAny decodes a remap frame of either kind. Exactly one
// of the results is non-nil on success: a full frame yields the Remap,
// a delta frame yields the remapDelta the caller applies onto its
// cached assignment.
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
	if ev.Machine, rest, err = getString(rest); err != nil {
		return nil, nil, err
	}
	if ev.Epoch, rest, err = getUvarint(rest); err != nil {
		return nil, nil, err
	}
	var raw uint64
	if raw, rest, err = getUvarint(rest); err != nil {
		return nil, nil, err
	}
	ev.Drift = unzigzagFloat(raw)
	if ev.Assignment, _, err = getAssignment(rest); err != nil {
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
		Flags:    assignmentFlags(a),
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
	dst = append(dst, protoVersion, remapKindDelta)
	dst = putString(dst, d.Machine)
	dst = putUvarint(dst, d.Epoch)
	dst = putUvarint(dst, zigzagFloat(d.Drift))
	dst = putUvarint(dst, uint64(d.Order))
	dst = putString(dst, d.Strategy)
	dst = append(dst, d.Flags, d.Mode, d.Aux)
	dst = putUvarint(dst, uint64(len(d.Parts)))
	for _, p := range d.Parts {
		dst = putUvarint(dst, uint64(p))
	}
	dst = putUvarint(dst, uint64(len(d.Tasks)))
	prev := -1
	for i, t := range d.Tasks {
		dst = putUvarint(dst, uint64(t-prev))
		prev = t
		dst = putUvarint(dst, uint64(d.ComputePU[i]))
		if d.Aux&deltaAuxControl != 0 {
			dst = putUvarint(dst, zigzag(int64(d.ControlPU[i])))
		}
		if d.Aux&deltaAuxCore != 0 {
			dst = putUvarint(dst, uint64(d.CoreOf[i]))
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
	if d.Machine, src, err = getString(src); err != nil {
		return nil, err
	}
	if d.Epoch, src, err = getUvarint(src); err != nil {
		return nil, err
	}
	var raw uint64
	if raw, src, err = getUvarint(src); err != nil {
		return nil, err
	}
	d.Drift = unzigzagFloat(raw)
	if d.Epoch == 0 {
		return nil, fmt.Errorf("orwlnet: delta frame with epoch 0")
	}
	var u uint64
	if u, src, err = getUvarint(src); err != nil {
		return nil, err
	}
	if u == 0 || u > maxDeltaTasks {
		return nil, fmt.Errorf("orwlnet: delta order %d out of range", u)
	}
	d.Order = int(u)
	if d.Strategy, src, err = getString(src); err != nil {
		return nil, err
	}
	if len(src) < 3 {
		return nil, fmt.Errorf("orwlnet: truncated delta header")
	}
	d.Flags, d.Mode, d.Aux = src[0], src[1], src[2]
	src = src[3:]
	if d.Flags&asgnUnbound != 0 {
		return nil, fmt.Errorf("orwlnet: delta frame for an unbound assignment")
	}
	if d.Aux&^(deltaAuxControl|deltaAuxCore) != 0 {
		return nil, fmt.Errorf("orwlnet: unknown delta aux bits %#x", d.Aux)
	}
	if u, src, err = getUvarint(src); err != nil {
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
			if u, src, err = getUvarint(src); err != nil {
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
	if u, src, err = getUvarint(src); err != nil {
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
		if u, src, err = getUvarint(src); err != nil {
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
		if u, src, err = getUvarint(src); err != nil {
			return nil, err
		}
		if u > maxDeltaPU {
			return nil, fmt.Errorf("orwlnet: compute PU %d out of wire range", u)
		}
		d.ComputePU = append(d.ComputePU, int(u))
		if d.Aux&deltaAuxControl != 0 {
			if u, src, err = getUvarint(src); err != nil {
				return nil, err
			}
			pu := unzigzag(u)
			if pu < -1 || pu > maxDeltaPU {
				return nil, fmt.Errorf("orwlnet: control PU %d out of wire range", pu)
			}
			d.ControlPU = append(d.ControlPU, int(pu))
		}
		if d.Aux&deltaAuxCore != 0 {
			if u, src, err = getUvarint(src); err != nil {
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
	a := prev.Clone()
	a.Strategy = d.Strategy
	a.Unbound = d.Flags&asgnUnbound != 0
	a.Oversubscribed = d.Flags&asgnOversubscribed != 0
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
	dst = putUint64(dst, st.ReportsReceived)
	dst = putUint64(dst, st.PeersTracked)
	dst = putUint64(dst, st.RemapsPushed)
	dst = putUint64(dst, st.StalePeersEvicted)
	dst = putUint64(dst, st.Watchers)
	dst = putUint64(dst, st.ReportsThrottled)
	dst = putUint64(dst, st.LeaseConflicts)
	dst = putUint64(dst, st.DeltaPushes)
	return putUint64(dst, st.FullPushes)
}

func getFleetStats(src []byte) (placement.FleetStats, []byte, error) {
	var st placement.FleetStats
	var err error
	if st.ReportsReceived, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.PeersTracked, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.RemapsPushed, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.StalePeersEvicted, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.Watchers, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.ReportsThrottled, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.LeaseConflicts, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.DeltaPushes, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	if st.FullPushes, src, err = getUint64(src); err != nil {
		return st, nil, err
	}
	return st, src, nil
}
