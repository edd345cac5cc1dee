package orwlplace

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"orwlplace/internal/codec"
	"orwlplace/internal/comm"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/orwlnet"
	"orwlplace/internal/placement"
)

// The fleet adaptive loop: the client half of the daemon-hosted
// control plane. A process registers its program's task range as a
// lease, ships observed-traffic windows up on a cadence, and applies
// the remaps the daemon's controller pushes down — closed-loop
// placement where the reconciler runs in the daemon and the processes
// only measure and obey.

// Remap is one adopted fleet mapping pushed to watchers: the
// machine-global assignment stamped with a per-machine epoch.
type Remap = orwlnet.Remap

// FleetAdaptiveConfig tunes a fleet adaptive loop.
type FleetAdaptiveConfig struct {
	// Machine routes the lease and the subscription ("" = the daemon's
	// default machine).
	Machine string
	// Peer identifies this process in the daemon's lease table; two
	// registrations with the same (machine, peer) replace each other.
	// "" derives an identity from the process id.
	Peer string
	// TaskBase is where this program's tasks sit in the machine-global
	// task space: local task i is fleet task TaskBase+i. Disjoint
	// processes on one machine use disjoint ranges.
	TaskBase int
	// Interval is the report cadence for Run (0 = 250ms).
	Interval time.Duration
	// Token is the lease ownership token presented at registration: a
	// daemon-side lease holding a non-zero token can only be displaced
	// by a registration carrying the same token, so a hostile peer
	// reusing this (machine, peer) identity cannot hijack the lease.
	// 0 generates a random token, which is the right default; set it
	// explicitly only to share one identity across process restarts.
	Token uint64
}

// defaultReportInterval paces Run's observed-window reports.
const defaultReportInterval = 250 * time.Millisecond

// FleetAdaptive is one process's membership in the fleet control
// plane: a lease, a report sequence, and the remap subscription.
// Build with NewFleetAdaptive, drive with Run (or Report/ApplyRemap
// for manual control).
type FleetAdaptive struct {
	rs   *RemotePlacement
	prog *Program
	cfg  FleetAdaptiveConfig

	leaseID uint64
	count   int

	mu       sync.Mutex
	seq      uint64
	applied  uint64 // last applied remap epoch
	reports  uint64
	remapped uint64
	dropped  uint64 // windows lost to retransmit-queue overflow or the cell cap
	releases uint64 // lease re-registrations after the daemon lost it
	sparse   uint64 // remaps applied via the O(changed) sparse re-bind
	rebound  uint64 // individual task bindings committed across all remaps

	// dropWarned gates the overflow log line: one line per overflow
	// episode, reset when the queue drains, so a prolonged outage does
	// not flood the log at report cadence.
	dropWarned bool

	// pending holds windows whose send failed, keyed by the sequence
	// number they were first assigned: retransmitting under the same
	// seq is safe (the daemon dedups), so a window that did arrive
	// before the error is never double-counted, and one that did not is
	// not lost. Bounded: a prolonged outage drops the oldest windows.
	pending []pendingReport
}

type pendingReport struct {
	seq uint64
	w   *comm.Sparse
}

// maxPendingReports bounds the retransmit queue.
const maxPendingReports = 16

// NewFleetAdaptive registers prog's task range with the daemon behind
// remote and returns the loop. The daemon must host a control plane
// (orwlnetd -adaptive). The program must be scheduled: the lease
// covers its task count.
func NewFleetAdaptive(ctx context.Context, remote *RemotePlacement, prog *Program, cfg FleetAdaptiveConfig) (*FleetAdaptive, error) {
	if remote == nil {
		return nil, fmt.Errorf("orwlplace: nil remote service")
	}
	if prog == nil {
		return nil, fmt.Errorf("orwlplace: nil program")
	}
	n := prog.NumTasks()
	if n == 0 {
		return nil, fmt.Errorf("orwlplace: program has no tasks to lease")
	}
	if cfg.Peer == "" {
		cfg.Peer = fmt.Sprintf("pid-%d", os.Getpid())
	}
	if cfg.Interval <= 0 {
		cfg.Interval = defaultReportInterval
	}
	if cfg.Token == 0 {
		cfg.Token = randomLeaseToken()
	}
	id, err := remote.RegisterLeaseToken(ctx, cfg.Machine, cfg.Peer, cfg.TaskBase, n, cfg.Token)
	if err != nil {
		return nil, err
	}
	return &FleetAdaptive{rs: remote, prog: prog, cfg: cfg, leaseID: id, count: n}, nil
}

// randomLeaseToken draws a non-zero 64-bit ownership token.
func randomLeaseToken() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively unreachable; fall back to a
		// pid-derived token rather than the unowned sentinel 0.
		return uint64(os.Getpid())<<16 | 1
	}
	t := binary.LittleEndian.Uint64(b[:])
	if t == 0 {
		t = 1
	}
	return t
}

// LeaseID returns the daemon-assigned lease identity (it changes if
// the loop re-registers after a daemon that lost its state restarts).
func (f *FleetAdaptive) LeaseID() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.leaseID
}

// reLease re-registers the lease under the same (machine, peer,
// token) identity after the daemon reports it unknown — the daemon
// restarted without (or with a stale) snapshot. The report sequence
// keeps counting from where it was: the fresh daemon-side lease has
// seen no sequence numbers, so queued retransmits still land.
func (f *FleetAdaptive) reLease(ctx context.Context) error {
	id, err := f.rs.RegisterLeaseToken(ctx, f.cfg.Machine, f.cfg.Peer, f.cfg.TaskBase, f.count, f.cfg.Token)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.leaseID = id
	f.releases++
	f.mu.Unlock()
	return nil
}

// Report ships the program's observed-traffic window accumulated since
// the previous report — taken, queued and encoded as a comm.Affinity,
// so a large program's sparse window costs O(nnz) end to end — after
// retransmitting any windows an earlier failed Report left queued. An
// empty window is skipped (no RPC, no sequence burn); it is not an
// error. If the daemon no longer knows the lease (it restarted without
// snapshot state), Report re-registers under the same ownership token
// and resumes on the fresh lease. A window the daemon acknowledged is
// handed back to the program's observed window for reuse; one whose
// send failed stays queued, untouched. A window with the pattern of the
// last acknowledged one ships its values only (ReportObserved); the
// first on a fresh lease ships in full. A window over codec.MaxMatrixCells
// is dropped (DroppedWindows), and its refusal returned after the rest.
func (f *FleetAdaptive) Report(ctx context.Context) error {
	f.mu.Lock()
	queue := f.pending
	f.pending = nil
	w := f.prog.ObservedWindowAffinity()
	if w.Total() > 0 {
		f.seq++
		queue = append(queue, pendingReport{seq: f.seq, w: w})
		if over := len(queue) - maxPendingReports; over > 0 {
			queue = queue[over:]
			f.dropped += uint64(over)
			if !f.dropWarned {
				f.dropWarned = true
				log.Printf("orwlplace: fleet lease %d retransmit queue overflowed: dropped %d oldest window(s); further drops this outage are counted but not logged", f.leaseID, over)
			}
		}
	}
	f.mu.Unlock()
	var refused error
	for i, pr := range queue {
		err := f.rs.ReportObserved(ctx, f.LeaseID(), pr.seq, pr.w)
		if errors.Is(err, ctrlplane.ErrUnknownLease) {
			// The daemon restarted and lost the lease: re-register under
			// the same token and retransmit this window on the new lease.
			if rerr := f.reLease(ctx); rerr == nil {
				err = f.rs.ReportObserved(ctx, f.LeaseID(), pr.seq, pr.w)
			}
		}
		if ce := (*codec.CellsError)(nil); errors.As(err, &ce) {
			// Refused unsent, as every retry would be: dropped, not
			// requeued in front of every later window.
			refused = fmt.Errorf("orwlplace: fleet lease %d dropped window %d: %w", f.LeaseID(), pr.seq, err)
		} else if err != nil {
			// Requeue this window and everything after it, in front of
			// whatever a concurrent Report may have queued meanwhile.
			f.mu.Lock()
			f.pending = append(append([]pendingReport(nil), queue[i:]...), f.pending...)
			f.mu.Unlock()
			return err
		}
		f.mu.Lock()
		if err != nil {
			f.dropped++
		} else {
			f.reports++
		}
		f.mu.Unlock()
		f.prog.RecycleObservedWindow(pr.w) // acknowledged or dropped: the next window refills it
	}
	f.mu.Lock()
	if len(f.pending) == 0 {
		f.dropWarned = false // queue drained: the overflow episode is over
	}
	f.mu.Unlock()
	return refused
}

// ApplyRemap commits the lease's slice of a machine-global remap to
// the program: fleet task TaskBase+i binds local task i. Stale epochs
// (already applied) return false without touching the binding.
//
// When the event names its moved tasks (a delta push, or a full frame
// whose controller computed the diff) and this loop holds the directly
// preceding epoch, only the moved tasks inside the lease are re-bound
// — O(changed) instead of O(lease). Any gap, and on the first ever
// remap, the whole slice is bound: bindings this process never applied
// may differ from what the moved-set was diffed against.
func (f *FleetAdaptive) ApplyRemap(ev Remap) (bool, error) {
	if ev.Assignment == nil {
		return false, nil
	}
	f.mu.Lock()
	applied := f.applied
	if ev.Epoch <= applied {
		f.mu.Unlock()
		return false, nil
	}
	f.mu.Unlock()
	if len(ev.Assignment.ComputePU) < f.cfg.TaskBase+f.count {
		return false, fmt.Errorf("orwlplace: remap covers %d fleet tasks, lease needs [%d,%d)",
			len(ev.Assignment.ComputePU), f.cfg.TaskBase, f.cfg.TaskBase+f.count)
	}
	local := &Assignment{
		Strategy:  ev.Assignment.Strategy,
		ComputePU: ev.Assignment.ComputePU[f.cfg.TaskBase : f.cfg.TaskBase+f.count],
	}
	if len(ev.Assignment.ControlPU) >= f.cfg.TaskBase+f.count {
		local.ControlPU = ev.Assignment.ControlPU[f.cfg.TaskBase : f.cfg.TaskBase+f.count]
	}
	var bound uint64
	sparseOK := ev.MovedTasks != nil && applied > 0 && ev.Epoch == applied+1 &&
		!ev.Assignment.Unbound
	if sparseOK {
		// Project the machine-global moved set onto the lease's range.
		var localTasks []int
		for _, t := range ev.MovedTasks {
			if t >= f.cfg.TaskBase && t < f.cfg.TaskBase+f.count {
				localTasks = append(localTasks, t-f.cfg.TaskBase)
			}
		}
		if err := placement.BindTasks(f.prog, local, localTasks); err != nil {
			return false, err
		}
		bound = uint64(len(localTasks))
	} else {
		if err := placement.Bind(f.prog, local); err != nil {
			return false, err
		}
		if !ev.Assignment.Unbound {
			bound = uint64(f.count)
		}
	}
	f.mu.Lock()
	if ev.Epoch > f.applied {
		f.applied = ev.Epoch
	}
	f.remapped++
	if sparseOK {
		f.sparse++
	}
	f.rebound += bound
	f.mu.Unlock()
	return true, nil
}

// AppliedEpoch returns the epoch of the last remap committed to the
// program (0 before the first).
func (f *FleetAdaptive) AppliedEpoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// Counters returns reports shipped and remaps applied.
func (f *FleetAdaptive) Counters() (reports, remaps uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reports, f.remapped
}

// FleetAdaptiveStats is a client-side health snapshot of one fleet
// adaptive loop.
type FleetAdaptiveStats struct {
	// Reports counts observed windows the daemon acknowledged.
	Reports uint64
	// Remaps counts remaps applied to the program.
	Remaps uint64
	// DroppedWindows counts observed windows lost to retransmit-queue
	// overflow during daemon outages, or refused for holding more than
	// codec.MaxMatrixCells nonzeros; their traffic is gone from the
	// daemon's affinity view until it recurs.
	DroppedWindows uint64
	// Releases counts lease re-registrations after a daemon restart
	// lost the lease (0 when the daemon snapshots its state).
	Releases uint64
	// AppliedEpoch is the epoch of the last remap committed.
	AppliedEpoch uint64
	// DeltaRemaps counts remaps applied through the O(changed) sparse
	// re-bind (the event named its moved tasks and this loop held the
	// preceding epoch); Remaps - DeltaRemaps were full re-binds.
	DeltaRemaps uint64
	// TasksRebound counts individual task bindings committed across all
	// applied remaps — the work the sparse path saves.
	TasksRebound uint64
}

// Stats returns the loop's client-side health counters.
func (f *FleetAdaptive) Stats() FleetAdaptiveStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FleetAdaptiveStats{
		Reports:        f.reports,
		Remaps:         f.remapped,
		DroppedWindows: f.dropped,
		Releases:       f.releases,
		AppliedEpoch:   f.applied,
		DeltaRemaps:    f.sparse,
		TasksRebound:   f.rebound,
	}
}

// Run drives the loop until ctx ends: observed windows ship every
// Interval, and every pushed remap is applied as it arrives. onRemap
// (nil ok) fires after each successful application — the hook tests
// and demos use to observe adoption. Run returns nil when ctx is
// cancelled, or an error if the subscription cannot be established or
// dies unrecoverably.
func (f *FleetAdaptive) Run(ctx context.Context, onRemap func(Remap)) error {
	remaps, err := f.rs.WatchRemaps(ctx, f.cfg.Machine)
	if err != nil {
		return err
	}
	tick := time.NewTicker(f.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
			if err := f.Report(ctx); err != nil && ctx.Err() == nil {
				// A lost report is not fatal: the next window carries the
				// traffic (the daemon merges deltas, and an unshipped
				// window stays accumulated in the program).
				continue
			}
		case ev, ok := <-remaps:
			if !ok {
				if ctx.Err() != nil {
					return nil
				}
				return fmt.Errorf("orwlplace: remap subscription lost")
			}
			if applied, err := f.ApplyRemap(ev); err == nil && applied && onRemap != nil {
				onRemap(ev)
			}
		}
	}
}
