// Package ctrlplane is the daemon-side fleet control plane: it gives
// remote peers a cross-process task identity, merges their observed-
// traffic windows into one fleet-wide matrix per machine, runs the
// adaptive reconciler over the merged view, and publishes adopted
// remaps to subscribers.
//
// The paper's placement loop — measure task affinity, map it onto the
// hardware tree, bind — closes in-process through placement.Reconciler.
// This package closes it across processes: each client process leases
// a contiguous slice of a machine's global task space, ships the
// traffic it measured among its own tasks, and the daemon sees the
// union — the matrix no single process could observe. The wire face
// (opFleetLease / opObservedReport / opWatchRemaps) lives
// in internal/orwlnet; this package is transport-agnostic.
package ctrlplane

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"orwlplace/internal/comm"
)

// Sentinel errors of the report path. Callers branch on them with
// errors.Is — locally, or across the wire, where orwlnet carries them
// as status codes. Their text is the phrase the wrapping message
// embeds.
var (
	// ErrUnknownLease refuses a report naming a lease the collector does
	// not hold (expired, or never registered): the peer must re-register.
	ErrUnknownLease = errors.New("unknown lease")
	// ErrRateLimited refuses a report over its sender's budget; the
	// refusal is transient, so the sender backs off and resends.
	ErrRateLimited = errors.New("rate limit")
)

// Lease is a registered (machine, peer, task-range) identity: the
// peer's tasks [TaskBase, TaskBase+TaskCount) name rows/columns of the
// machine's fleet-wide observed matrix. The ID is server-assigned and
// names the lease in subsequent observed reports.
type Lease struct {
	ID        uint64
	Machine   string
	Peer      string
	TaskBase  int
	TaskCount int
	// Token is the ownership secret presented at registration. A lease
	// registered with a non-zero token can only be replaced by a
	// registration presenting the same token; zero means unowned
	// (legacy clients), which any later registration may displace.
	Token uint64
}

// DefaultMaxLeaseTasks bounds a single lease's task range — and with
// it the order of the merged matrix a hostile registration could force
// the daemon to allocate, and of the windows its reports may carry —
// when the collector is not configured with its own bound. Deployments
// can raise it (orwlnetd -max-lease-tasks): the merged fleet matrix is
// O(nnz), not O(n²).
const DefaultMaxLeaseTasks = 2896

// leaseState is a live lease plus its liveness bookkeeping.
type leaseState struct {
	Lease
	lastReport time.Time
	lastSeq    uint64 // highest observed-report sequence merged

	// base is the last window this collector decoded and merged for the
	// lease, baseSeq its seq: what a base-coded report's values apply
	// to. spare is the next decode's target. Neither is snapshotted.
	base, spare *comm.Sparse
	baseSeq     uint64

	// Report-rate token bucket (only consulted when the collector has a
	// report limit configured).
	bucket     float64
	lastRefill time.Time
}

// machineState accumulates one machine's merged observed traffic.
type machineState struct {
	// pending holds the deltas merged since the last Window call,
	// sparse at every order: each task talks to a few neighbours, so the
	// window's nonzeros, not its order, bound every walk of it. Its
	// order is the machine's global task-space size (it grows when a
	// lease extends the space and never shrinks, so the reconciler's
	// drift baseline stays comparable).
	pending *comm.Sparse
	order   int
	// spare is a drained accumulator its consumer handed back (Recycle):
	// the next pending is it, reset, instead of a fresh allocation.
	spare *comm.Sparse
}

// Collector merges per-peer observed-traffic windows into per-machine
// fleet-wide matrices. Reports are deltas (each covers the traffic
// since the peer's previous report), so merging is pure addition at
// the lease's task offset; Window drains the merged delta, giving the
// consumer (the Controller's reconciler) the same disjoint-epoch
// semantics placement.ObservedWindow gives in-process.
//
// Peers that stop reporting are evicted after StaleAfter: their lease
// dies and later reports under it are refused, forcing a re-register
// — a crashed client cannot pin fleet state forever.
type Collector struct {
	staleAfter time.Duration
	now        func() time.Time // injectable for eviction tests

	// reportRate/reportBurst configure the per-lease report token
	// bucket; rate 0 disables limiting.
	reportRate  float64
	reportBurst float64

	// maxTasks bounds lease task ranges; 0 means DefaultMaxLeaseTasks.
	maxTasks int

	mu       sync.Mutex
	nextID   uint64
	leases   map[uint64]*leaseState
	machines map[string]*machineState

	reports   uint64
	evicted   uint64
	throttled uint64
	conflicts uint64
}

// DefaultStaleAfter is the lease staleness window when the caller
// passes zero: generous enough for second-scale reporting cadences,
// short enough that a dead peer disappears within a minute.
const DefaultStaleAfter = time.Minute

// NewCollector builds a collector evicting leases idle for staleAfter
// (0 = DefaultStaleAfter, negative = never evict).
func NewCollector(staleAfter time.Duration) *Collector {
	if staleAfter == 0 {
		staleAfter = DefaultStaleAfter
	}
	return &Collector{
		staleAfter: staleAfter,
		now:        time.Now,
		nextID:     leaseIDBase(),
		leases:     make(map[uint64]*leaseState),
		machines:   make(map[string]*machineState),
	}
}

// leaseIDBase draws the lease-id base of one collector incarnation: a
// random 32-bit nonce above a 20-bit counter. A restarted daemon without
// a snapshot thus issues ids its predecessor did not, so a report under
// a lease the old incarnation granted fails with ErrUnknownLease rather
// than landing on whichever peer re-leased first. Ids stay below 2^53,
// exact for JSON and expvar readers.
func leaseIDBase() uint64 {
	var b [4]byte
	_, _ = rand.Read(b[:]) // from Go 1.24 Read never returns an error: it crashes the program instead
	return uint64(binary.LittleEndian.Uint32(b[:])) << 20
}

// SetReportLimit configures the per-lease observed-report token
// bucket: each lease may sustain rate reports/sec with bursts up to
// burst. Rate <= 0 disables limiting (the default). Call before the
// collector starts taking reports.
func (c *Collector) SetReportLimit(rate, burst float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if burst < 1 {
		burst = 1
	}
	c.reportRate = rate
	c.reportBurst = burst
}

// SetMaxLeaseTasks bounds lease task ranges (n <= 0 restores
// DefaultMaxLeaseTasks). Call before the collector starts taking
// registrations; snapshot restores validate against the same bound
// (DecodeSnapshotLimit), so configure both consistently.
func (c *Collector) SetMaxLeaseTasks(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n <= 0 {
		n = 0
	}
	c.maxTasks = n
}

// MaxLeaseTasks returns the effective lease task-range bound.
func (c *Collector) MaxLeaseTasks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxTasksLocked()
}

func (c *Collector) maxTasksLocked() int {
	if c.maxTasks > 0 {
		return c.maxTasks
	}
	return DefaultMaxLeaseTasks
}

// Register leases the task range [base, base+count) of machine's
// global task space to peer and returns the lease, with no ownership
// token — the legacy, displaceable registration. See RegisterToken.
func (c *Collector) Register(machine, peer string, base, count int) (Lease, error) {
	return c.RegisterToken(machine, peer, base, count, 0)
}

// RegisterToken leases the task range [base, base+count) of machine's
// global task space to peer and returns the lease. Re-registering an
// existing (machine, peer) pair — a client that reconnected — replaces
// the old lease, so a bounced process does not leak identities; but a
// live lease carrying a non-zero ownership token is only replaceable
// by a registration presenting the same token, so one peer cannot
// displace another's lease just by naming it. Ranges of different
// peers may overlap; their traffic merges additively.
func (c *Collector) RegisterToken(machine, peer string, base, count int, token uint64) (Lease, error) {
	if machine == "" || peer == "" {
		return Lease{}, fmt.Errorf("ctrlplane: lease needs a machine and a peer name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if max := c.maxTasksLocked(); base < 0 || count <= 0 || base+count > max {
		return Lease{}, fmt.Errorf("ctrlplane: lease task range [%d,%d) out of bounds (max %d tasks)", base, base+count, max)
	}
	c.evictStaleLocked()
	// Replace a previous incarnation of the same peer — unless the live
	// lease is owned and the caller cannot prove ownership.
	for id, ls := range c.leases {
		if ls.Machine == machine && ls.Peer == peer {
			if ls.Token != 0 && ls.Token != token {
				c.conflicts++
				return Lease{}, fmt.Errorf("ctrlplane: lease conflict: peer %q on machine %q is held by another owner", peer, machine)
			}
			delete(c.leases, id)
		}
	}
	c.nextID++
	now := c.now()
	ls := &leaseState{
		Lease:      Lease{ID: c.nextID, Machine: machine, Peer: peer, TaskBase: base, TaskCount: count, Token: token},
		lastReport: now,
		bucket:     c.reportBurst,
		lastRefill: now,
	}
	c.leases[ls.ID] = ls
	ms := c.machineLocked(machine)
	if base+count > ms.order {
		ms.order = base + count
	}
	return ls.Lease, nil
}

func (c *Collector) machineLocked(machine string) *machineState {
	ms := c.machines[machine]
	if ms == nil {
		ms = &machineState{}
		c.machines[machine] = ms
	}
	return ms
}

// ReportAffinity merges one observed window (a delta since the peer's
// previous report) into the lease's machine, in O(nnz) whatever its
// representation. The delta's order must equal the lease's task count;
// cell (i, j) lands at (base+i, base+j). seq is the peer's report
// sequence number: a sequence at or below the last merged one is
// dropped without error (a retransmit after reconnect must not
// double-count traffic). The delta is folded and never retained: the
// caller may reuse it as soon as the call returns.
func (c *Collector) ReportAffinity(leaseID, seq uint64, delta comm.Affinity) error {
	return c.report(leaseID, seq, delta, nil)
}

// ReportDecoded is ReportAffinity for the window decode refills dst with
// outside the lock — dst is the lease's spare, or fresh — and keeps it:
// the merged window is the lease's base.
func (c *Collector) ReportDecoded(leaseID, seq uint64, decode func(dst *comm.Sparse) (*comm.Sparse, error)) error {
	c.mu.Lock()
	dst := new(comm.Sparse)
	if ls := c.leases[leaseID]; ls != nil && ls.spare != nil {
		dst, ls.spare = ls.spare, nil
	}
	c.mu.Unlock()
	w, err := decode(dst)
	if err != nil {
		return err
	}
	return c.report(leaseID, seq, w, w)
}

// report merges delta; a merged base becomes the lease's base window.
func (c *Collector) report(leaseID, seq uint64, delta comm.Affinity, base *comm.Sparse) error {
	if comm.NilAffinity(delta) {
		return fmt.Errorf("ctrlplane: nil observed window")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ls, err := c.admitLocked(leaseID, delta.Order(), seq)
	if ls != nil {
		c.mergeLocked(ls, seq, delta)
		if base != nil {
			ls.base, ls.baseSeq, ls.spare = base, seq, ls.base
		}
	}
	return err
}

// ReportBase merges a window shipped as values against the lease's base.
// After the lease, rate and seq checks (a duplicate is not decoded),
// decode builds it from base (nil when the lease holds none) of seq
// baseSeq: base itself when no value changed, else dst refilled. The
// window merges and becomes the base unless decode fails.
func (c *Collector) ReportBase(leaseID, seq uint64, decode func(base *comm.Sparse, baseSeq uint64, dst *comm.Sparse) (*comm.Sparse, error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ls, err := c.admitLocked(leaseID, -1, seq)
	if ls == nil {
		return err
	}
	if ls.spare == nil {
		ls.spare = new(comm.Sparse)
	}
	w, err := decode(ls.base, ls.baseSeq, ls.spare)
	if err != nil {
		return err
	}
	c.mergeLocked(ls, seq, w)
	if w != ls.base {
		ls.base, ls.spare = w, ls.base
	}
	ls.baseSeq = seq
	return nil
}

// admitLocked checks a report's lease, window order (-1: fixed by the
// base) and rate; it returns a nil lease for a duplicate seq (not 0).
func (c *Collector) admitLocked(leaseID uint64, order int, seq uint64) (*leaseState, error) {
	c.evictStaleLocked()
	ls, ok := c.leases[leaseID]
	if !ok {
		return nil, fmt.Errorf("ctrlplane: %w %d (expired or never registered — re-register)", ErrUnknownLease, leaseID)
	}
	if order >= 0 && order != ls.TaskCount {
		return nil, fmt.Errorf("ctrlplane: observed window order %d does not match lease %d task count %d", order, leaseID, ls.TaskCount)
	}
	now := c.now()
	ls.lastReport = now // a throttled peer is still alive
	if c.reportRate > 0 {
		ls.bucket += now.Sub(ls.lastRefill).Seconds() * c.reportRate
		if ls.bucket > c.reportBurst {
			ls.bucket = c.reportBurst
		}
		ls.lastRefill = now
		if ls.bucket < 1 {
			c.throttled++
			return nil, fmt.Errorf("ctrlplane: %w: lease %d exceeded %g reports/sec (burst %g) — back off and retry", ErrRateLimited, leaseID, c.reportRate, c.reportBurst)
		}
		ls.bucket--
	}
	if seq <= ls.lastSeq && seq != 0 {
		return nil, nil
	}
	return ls, nil
}

// mergeLocked adds the lease's window of seq at its task offset.
func (c *Collector) mergeLocked(ls *leaseState, seq uint64, delta comm.Affinity) {
	ls.lastSeq = seq
	ms := c.machineLocked(ls.Machine)
	c.growPendingLocked(ms)
	base := ls.TaskBase
	delta.ForEach(func(i, j int, v float64) {
		if !ms.pending.Append(base+i, base+j, v) {
			ms.pending.Add(base+i, base+j, v)
		}
	})
	c.reports++
}

// growPendingLocked (re)creates the machine's pending accumulator at
// the current global order, carrying over already-merged cells. It is
// sparse at every order; a recycled spare is reused.
func (c *Collector) growPendingLocked(ms *machineState) {
	if ms.pending != nil && ms.pending.Order() >= ms.order {
		return
	}
	grown := ms.spare
	ms.spare = nil
	if grown == nil {
		grown = new(comm.Sparse)
	}
	grown.Reset(ms.order)
	if ms.pending != nil {
		ms.pending.ForEach(grown.Set)
	}
	ms.pending = grown
}

// WindowAffinity drains and returns the machine's merged observed
// delta since the previous call — the fleet-wide analogue of one
// TrafficWindow epoch — at the machine's current global order, as a
// *comm.Sparse at every order so each fleet window is O(nnz) end to
// end. Nil means no lease has touched the machine yet.
func (c *Collector) WindowAffinity(machine string) comm.Affinity {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictStaleLocked()
	ms := c.machines[machine]
	if ms == nil || ms.order == 0 {
		return nil
	}
	c.growPendingLocked(ms)
	w := ms.pending
	ms.pending = nil
	return w
}

// Recycle hands a drained window back once its consumer is done with
// it: the machine's next accumulator reuses its storage, so a steady
// drain-and-reconcile loop allocates no matrix. The caller must hold no
// other reference to a. Recycling is optional — a consumer that never
// calls it simply owns what it drained. A dense matrix is dropped: the
// accumulator is sparse at every order.
func (c *Collector) Recycle(machine string, a comm.Affinity) {
	s, ok := a.(*comm.Sparse)
	if !ok || s == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if ms := c.machines[machine]; ms != nil {
		ms.spare = s
	}
}

// Order returns the machine's current global task-space size (0 while
// no lease has touched it).
func (c *Collector) Order(machine string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	ms := c.machines[machine]
	if ms == nil {
		return 0
	}
	return ms.order
}

// Leases snapshots the live leases of one machine ("" = all machines),
// in no particular order.
func (c *Collector) Leases(machine string) []Lease {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictStaleLocked()
	var out []Lease
	for _, ls := range c.leases {
		if machine == "" || ls.Machine == machine {
			out = append(out, ls.Lease)
		}
	}
	return out
}

// Counters returns (reports merged, live leases, stale evictions).
func (c *Collector) Counters() (reports, peers, evicted uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictStaleLocked()
	return c.reports, uint64(len(c.leases)), c.evicted
}

// Abuse returns the hostile-peer counters: reports refused by the rate
// limit and registrations refused by lease-ownership conflicts.
func (c *Collector) Abuse() (throttled, conflicts uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.throttled, c.conflicts
}

// evictStaleLocked drops leases whose peer has not reported within
// staleAfter. The task space they claimed stays claimed (orders never
// shrink — the reconciler's baseline must stay comparable), only the
// identity dies.
func (c *Collector) evictStaleLocked() {
	if c.staleAfter < 0 {
		return
	}
	cutoff := c.now().Add(-c.staleAfter)
	for id, ls := range c.leases {
		if ls.lastReport.Before(cutoff) {
			delete(c.leases, id)
			c.evicted++
		}
	}
}
