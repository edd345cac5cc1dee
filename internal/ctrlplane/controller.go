package ctrlplane

import (
	"context"
	"fmt"
	"sync"
	"time"

	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
)

// Remap is one adopted fleet mapping: the event pushed to opWatchRemaps
// subscribers. Epoch is a per-machine monotone counter (1 = the first
// mapping the controller ever adopted for the machine), so clients can
// dedup the catch-up ack against pushed events and resubscribe after a
// reconnect with "give me anything newer than N". A Remap, its
// Assignment and its slices are shared with the reconciler, every
// subscriber and the snapshot: read-only (Clone to edit).
type Remap struct {
	Machine string
	// Epoch stamps the adoption; a subscriber applies a remap only when
	// its epoch exceeds the last one it applied.
	Epoch uint64
	// Drift is the measured drift that triggered the adoption (0 for
	// the initial mapping).
	Drift float64
	// Assignment maps the machine's global task space: task t (a
	// lease's TaskBase+i) runs on Assignment.ComputePU[t]. A client
	// applies its lease's slice.
	Assignment *placement.Assignment
	// MovedTasks lists, ascending, the tasks whose placement changed
	// relative to the previous epoch — what a delta remap frame
	// ships and an O(changed) re-bind touches. Nil means unknown (the
	// initial adoption, a catch-up snapshot, or incomparable
	// assignments): consumers must then treat every task as possibly
	// moved.
	MovedTasks []int
	// RemappedPartitions lists, ascending, the partition indices the
	// reconciler re-placed for this adoption (nil when unknown or
	// unpartitioned).
	RemappedPartitions []int
	// Delta is set on the client side when this event was reconstructed
	// from a delta frame rather than received as a full snapshot — a
	// diagnostic for counters; the Assignment is complete either way.
	Delta bool
}

// Config tunes a Controller.
type Config struct {
	// Adaptive tunes the per-machine reconcilers (drift threshold,
	// hysteresis, model horizon, ...); they re-place through TreeMatch.
	// The zero value gets the placement.AdaptiveConfig defaults.
	Adaptive placement.AdaptiveConfig
	// StaleAfter is the lease staleness window (0 = DefaultStaleAfter,
	// negative = never evict).
	StaleAfter time.Duration
	// ReportRate / ReportBurst bound each lease's observed-report
	// cadence (token bucket, reports/sec; rate 0 = unlimited). A peer
	// above its budget gets a retryable "rate limit" error and its
	// report is dropped without touching other peers.
	ReportRate  float64
	ReportBurst float64
	// MaxLeaseTasks bounds each lease's task range and with it the
	// machine's global task-space order (0 = DefaultMaxLeaseTasks).
	// The merged fleet matrix is sparse, so raising it costs O(nnz),
	// not O(n²); snapshot restores are validated against the same
	// bound.
	MaxLeaseTasks int
}

// Controller is the daemon-hosted reconciliation engine: one
// placement.Reconciler per fleet machine, fed by the Collector's
// merged observed matrices, publishing adopted mappings to
// subscribers. It is the transport-agnostic core of the fleet control
// plane; internal/orwlnet bridges it to opFleetLease /
// opObservedReport / opWatchRemaps.
type Controller struct {
	fleet *placement.MultiService
	col   *Collector
	cfg   Config

	mu      sync.Mutex
	loops   map[string]*machineLoop
	subs    map[uint64]*subscriber
	nextSub uint64
	pushed  uint64
}

// machineLoop is one machine's reconciliation state. mu serialises
// Epoch per machine (different machines reconcile independently);
// epoch and latest are guarded by the controller's mu, since publish
// and Subscribe must see them atomically.
type machineLoop struct {
	name string
	svc  *placement.LocalService
	src  *handoffSource
	rec  *placement.Reconciler

	mu sync.Mutex
	// order is the task-space order of the reconciler's baseline, 0
	// before the first mapping: a window of any other order is primed
	// afresh instead of measured against it.
	order int

	epoch  uint64
	latest *Remap
}

type subscriber struct {
	machine string
	ch      chan Remap
}

// handoffSource adapts the controller's pull-then-reconcile flow to
// the Source seam the Reconciler consumes: the controller
// drains a Collector window, stages it here, and runs one Epoch. The
// window stays the collector's *comm.Sparse all the way into the
// reconciler.
//
// Every staged window is given away: Affinity hands it out once, and
// whatever the reconciler is done with — the window, or the baseline an
// adopted window replaced — comes back through Recycle and goes to the
// collector as its next accumulator.
type handoffSource struct {
	col     *Collector
	machine string

	mu sync.Mutex
	a  comm.Affinity
}

func (s *handoffSource) Name() string { return "fleet-observed" }

func (s *handoffSource) Affinity() (comm.Affinity, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.a == nil {
		return nil, fmt.Errorf("ctrlplane: no merged window staged")
	}
	a := s.a
	s.a = nil
	return a, nil
}

// Recycle implements the reconciler's optional window hand-back.
func (s *handoffSource) Recycle(a comm.Affinity) { s.col.Recycle(s.machine, a) }

func (s *handoffSource) set(a comm.Affinity) {
	s.mu.Lock()
	s.a = a
	s.mu.Unlock()
}

// NewController builds the control plane over a fleet: one reconciler
// per currently registered machine (attached to its service, so the
// adaptive counters surface through Stats), one shared collector.
func NewController(fleet *placement.MultiService, cfg Config) (*Controller, error) {
	if fleet == nil {
		return nil, fmt.Errorf("ctrlplane: nil fleet")
	}
	machines := fleet.Machines()
	if len(machines) == 0 {
		return nil, fmt.Errorf("ctrlplane: fleet has no machines")
	}
	c := &Controller{
		fleet: fleet,
		col:   NewCollector(cfg.StaleAfter),
		cfg:   cfg,
		loops: make(map[string]*machineLoop, len(machines)),
		subs:  make(map[uint64]*subscriber),
	}
	if cfg.ReportRate > 0 {
		c.col.SetReportLimit(cfg.ReportRate, cfg.ReportBurst)
	}
	if cfg.MaxLeaseTasks > 0 {
		c.col.SetMaxLeaseTasks(cfg.MaxLeaseTasks)
	}
	for _, name := range machines {
		svc, err := fleet.MachineService(name)
		if err != nil {
			return nil, err
		}
		src := &handoffSource{col: c.col, machine: name}
		// prog is nil: the daemon owns no tasks to re-bind — adopted
		// mappings travel to the processes that do, via Subscribe.
		rec, err := placement.NewReconciler(svc.Engine(), src, nil, cfg.Adaptive)
		if err != nil {
			return nil, err
		}
		svc.AttachReconciler(rec)
		c.loops[name] = &machineLoop{name: name, svc: svc, src: src, rec: rec}
	}
	return c, nil
}

// Collector returns the lease/report merger the controller reconciles
// from.
func (c *Controller) Collector() *Collector { return c.col }

// Machines lists the machines the controller reconciles.
func (c *Controller) Machines() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.loops))
	for name := range c.loops {
		out = append(out, name)
	}
	return out
}

// resolve maps the empty machine name to the fleet's default machine,
// mirroring the placement-routing convention ("" = default).
func (c *Controller) resolve(machine string) string {
	if machine == "" {
		return c.fleet.DefaultMachine()
	}
	return machine
}

// Register leases a task range with no ownership token; see
// RegisterToken.
func (c *Controller) Register(machine, peer string, base, count int) (Lease, error) {
	return c.RegisterToken(machine, peer, base, count, 0)
}

// RegisterToken leases a task range; the machine ("" = the fleet
// default) must be one the controller reconciles (a lease against an
// unknown machine would feed a matrix nobody consumes). A non-zero
// token claims ownership: only a registration presenting the same
// token can later replace the lease.
func (c *Controller) RegisterToken(machine, peer string, base, count int, token uint64) (Lease, error) {
	machine = c.resolve(machine)
	c.mu.Lock()
	_, ok := c.loops[machine]
	c.mu.Unlock()
	if !ok {
		return Lease{}, fmt.Errorf("ctrlplane: unknown machine %q", machine)
	}
	return c.col.RegisterToken(machine, peer, base, count, token)
}

// ReportAffinity merges one observed window under a lease, in the
// representation it arrives in, and never retains it (see
// Collector.ReportAffinity).
func (c *Controller) ReportAffinity(leaseID, seq uint64, delta comm.Affinity) error {
	return c.col.ReportAffinity(leaseID, seq, delta)
}

// Epoch runs one reconciliation step for machine: drain the merged
// window, measure drift, adopt when warranted, publish to subscribers.
// A nil report means the machine was idle (no merged traffic).
func (c *Controller) Epoch(machine string) (*placement.EpochReport, error) {
	machine = c.resolve(machine)
	c.mu.Lock()
	lp, ok := c.loops[machine]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("ctrlplane: unknown machine %q", machine)
	}
	lp.mu.Lock()
	defer lp.mu.Unlock()
	w := c.col.WindowAffinity(machine)
	if w == nil {
		return nil, nil
	}
	if allZero(w) {
		c.col.Recycle(machine, w)
		return nil, nil
	}
	if w.Order() != lp.order {
		// First traffic ever seen for this machine, or a task space that
		// grew since the baseline (a lease registered after priming):
		// prime the reconciler on the window — there is no baseline of
		// this order to drift from.
		if err := lp.rec.Prime(placement.Fixed("window", w)); err != nil {
			return nil, err
		}
		a := lp.rec.Current()
		lp.order = w.Order()
		c.publish(lp, Remap{Machine: machine, Assignment: a})
		rep := &placement.EpochReport{WindowBytes: w.Total(), Recomputed: true, Adopted: true, Assignment: a}
		c.col.Recycle(machine, w) // Prime kept a copy
		return rep, nil
	}
	lp.src.set(w)
	rep, err := lp.rec.Epoch()
	if err != nil {
		return nil, err
	}
	if rep.Adopted {
		c.publish(lp, Remap{
			Machine:            machine,
			Drift:              rep.Drift,
			Assignment:         rep.Assignment,
			MovedTasks:         rep.MovedTasks,
			RemappedPartitions: rep.RemappedPartitions,
		})
	}
	return rep, nil
}

// allZero reports whether w holds no nonzero cell — an idle drain —
// stopping at the first row that has one, so a window with traffic is
// not summed here and again by the reconciler.
func allZero(w comm.Affinity) bool {
	found := false
	for i := 0; i < w.Order() && !found; i++ {
		w.ForEachRow(i, func(int, float64) { found = true })
	}
	return !found
}

// publish stamps the remap with the machine's next epoch and fans it
// out to the machine's subscribers, latest-wins: a slow subscriber's
// buffer keeps only the newest events, which is safe because every
// remap is a full snapshot of the mapping, not an increment.
func (c *Controller) publish(lp *machineLoop, ev Remap) {
	c.mu.Lock()
	defer c.mu.Unlock()
	lp.epoch++
	ev.Epoch = lp.epoch
	lp.latest = &ev
	for _, sub := range c.subs {
		if sub.machine != lp.name {
			continue
		}
		select {
		case sub.ch <- ev:
		default:
			// Full: displace the oldest buffered event and retry once.
			select {
			case <-sub.ch:
			default:
			}
			select {
			case sub.ch <- ev:
			default:
			}
		}
		c.pushed++
	}
}

// Subscribe registers a remap watcher for machine. Events newer than
// sinceEpoch flow on the returned channel; if the machine's latest
// adopted mapping is already newer than sinceEpoch it is returned as
// the catch-up event (the wire layer answers it as the opWatchRemaps
// ack). Registration and catch-up are atomic under one lock, so an
// adoption can never fall between them unseen. Release with
// Unsubscribe, which closes the channel.
func (c *Controller) Subscribe(machine string, sinceEpoch uint64) (id uint64, ch <-chan Remap, catchUp *Remap, err error) {
	machine = c.resolve(machine)
	c.mu.Lock()
	defer c.mu.Unlock()
	lp, ok := c.loops[machine]
	if !ok {
		return 0, nil, nil, fmt.Errorf("ctrlplane: unknown machine %q", machine)
	}
	c.nextSub++
	sub := &subscriber{machine: machine, ch: make(chan Remap, 8)}
	c.subs[c.nextSub] = sub
	if lp.latest != nil && lp.latest.Epoch > sinceEpoch {
		catchUp = lp.latest
	}
	return c.nextSub, sub.ch, catchUp, nil
}

// Unsubscribe drops a watcher and closes its channel.
func (c *Controller) Unsubscribe(id uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sub, ok := c.subs[id]; ok {
		delete(c.subs, id)
		close(sub.ch)
	}
}

// Latest returns the machine's newest adopted remap (nil before the
// first adoption), shared and read-only like every Remap.
func (c *Controller) Latest(machine string) *Remap {
	machine = c.resolve(machine)
	c.mu.Lock()
	defer c.mu.Unlock()
	lp, ok := c.loops[machine]
	if !ok {
		return nil
	}
	return lp.latest
}

// Stats snapshots the control plane's counters for the stats payload.
func (c *Controller) Stats() placement.FleetStats {
	reports, peers, evicted := c.col.Counters()
	throttled, conflicts := c.col.Abuse()
	c.mu.Lock()
	defer c.mu.Unlock()
	return placement.FleetStats{
		ReportsReceived:   reports,
		PeersTracked:      peers,
		RemapsPushed:      c.pushed,
		StalePeersEvicted: evicted,
		Watchers:          uint64(len(c.subs)),
		ReportsThrottled:  throttled,
		LeaseConflicts:    conflicts,
	}
}

// Run drives Epoch for every machine on a ticker until the context is
// cancelled. Per-machine errors go to report (nil drops them) and do
// not stop the loop — one machine's model failure must not stall the
// fleet.
func (c *Controller) Run(ctx context.Context, every time.Duration, report func(machine string, rep *placement.EpochReport, err error)) error {
	if every <= 0 {
		return fmt.Errorf("ctrlplane: non-positive epoch interval %v", every)
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			for _, machine := range c.Machines() {
				rep, err := c.Epoch(machine)
				if report != nil && (rep != nil || err != nil) {
					report(machine, rep, err)
				}
			}
		}
	}
}
