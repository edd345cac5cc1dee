package placement

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// PlaceRequest asks a placement service for an assignment. It is the
// transport-agnostic unit: the in-process service consumes it
// directly, the orwlnet stub serialises it onto the wire.
type PlaceRequest struct {
	// Machine names the fleet machine to place onto. Empty selects the
	// service's default machine.
	Machine string
	// Strategy names a strategy of the table ("treematch", "compact", ...).
	Strategy string
	// Entities is the number of entities to place. May be zero when
	// Matrix is set, in which case the matrix order is used; otherwise
	// it must equal the order.
	Entities int
	// Matrix is the communication matrix, in either storage; nil for
	// matrix-oblivious strategies.
	Matrix comm.Affinity
	// MatrixFP is an optional precomputed comm.Fingerprint(Matrix) —
	// a performance hint that spares the service re-hashing the matrix
	// on every call (hashing a large matrix dominates the warm cache
	// path). Zero means unknown: the service hashes as needed. If set,
	// it MUST equal comm.Fingerprint(Matrix); a stale value (matrix
	// mutated after hashing) aliases the request to the wrong cache
	// identity and can return the wrong cached assignment. The wire
	// layer fills it in on the serving side.
	MatrixFP uint64
	// Options tunes the mapping algorithm. The wire carries only
	// ControlThreads: the service pins PartitionThreshold to -1, so a
	// placement maps in one run at every order.
	Options Options
}

// PlaceResponse carries the assignment plus the diagnostics a remote
// caller cannot observe: whether the mapping cache served the call,
// the modeled quality of the placement, and the service-side latency.
type PlaceResponse struct {
	// Machine is the fleet machine that served the request: the name
	// the request selected, or the default machine's name when the
	// request left it empty.
	Machine string
	// Err carries one machine's failure in a cross-machine comparison
	// (orwlplace.PlaceAcross answers every machine positionally, so a
	// failed machine is a response with Err set and no Assignment). It
	// is in-process only: Place returns a Go error and leaves Err empty,
	// and the wire does not carry it.
	Err string
	// Assignment is the computed placement: shared with the engine's
	// cache (and, remotely, the client's decode memo), so read-only —
	// Clone it to edit.
	Assignment *Assignment
	// CacheHit is true when the assignment came from the mapping cache.
	CacheHit bool
	// Cost is the TreeMatch objective of the assignment (hop-weighted
	// communication volume); zero when no matrix was given or the
	// assignment is unbound.
	Cost float64
	// CrossNUMAVolume is the volume exchanged across NUMA nodes under
	// the assignment; zero under the same conditions as Cost.
	CrossNUMAVolume float64
	// Cache is a snapshot of the engine's cache counters after the call.
	Cache CacheStats
	// ElapsedNS is the service-side time spent computing, in
	// nanoseconds.
	ElapsedNS int64
}

// ServiceStats describes a placement service: the machine it places
// onto, the strategies it offers, and its traffic counters.
type ServiceStats struct {
	// TopologyName is the served machine's name.
	TopologyName string
	// TopologySignature fingerprints the served machine, so callers
	// can compare machines without fetching the tree.
	TopologySignature uint64
	// Strategies lists the strategy names the service accepts.
	Strategies []string
	// Machines lists the fleet machine names the service routes to,
	// default machine first. A single-machine service
	// lists just its own machine.
	Machines []string
	// Places counts the Place calls served.
	Places uint64
	// Cache is a snapshot of the mapping-cache counters.
	Cache CacheStats
	// Adaptive counts the activity of reconcilers attached to the
	// service: epochs run, drift alarms, adopted and
	// rejected remaps. Zero when no feedback loop is attached.
	Adaptive AdaptiveStats
	// Net carries the serving daemon's transport counters:
	// pipeline depth, wire volume and compact-payload traffic. It is
	// filled by the wire layer when stats are served over a pipelined
	// connection; an in-process service reports zeros (there is no
	// wire).
	Net NetStats
	// Fleet carries the daemon's control-plane counters:
	// observed-traffic reports merged, peers currently tracked, remap
	// events pushed to subscribers, stale peers evicted. Filled by the
	// serving daemon when a control plane is attached; an in-process
	// service reports zeros.
	Fleet FleetStats
}

// FleetStats counts a daemon control plane's activity — the
// observability face of the fleet subsystem. Counters are
// process-lifetime totals except PeersTracked and Watchers
// (instantaneous).
type FleetStats struct {
	// ReportsReceived counts opObservedReport frames merged into the
	// fleet-wide observed matrices.
	ReportsReceived uint64
	// PeersTracked is the number of live (machine, peer, task-range)
	// leases at the moment of the snapshot.
	PeersTracked uint64
	// RemapsPushed counts remap events delivered to subscribers
	// (one per subscriber per adopted mapping).
	RemapsPushed uint64
	// StalePeersEvicted counts leases dropped because their peer
	// stopped reporting for longer than the staleness window.
	StalePeersEvicted uint64
	// Watchers is the number of live remap subscriptions at the moment
	// of the snapshot.
	Watchers uint64
	// ReportsThrottled counts observed reports refused by the per-peer
	// rate limit (PR 8 hostile-peer hardening). The refusal is
	// retryable: the reporting client backs off and resends under the
	// same sequence number.
	ReportsThrottled uint64
	// LeaseConflicts counts lease registrations refused because the
	// (machine, peer) name was held under a different ownership token.
	LeaseConflicts uint64
	// DeltaPushes counts remap frames shipped to subscribers in the
	// delta encoding (moved tasks only); FullPushes counts
	// the frames that carried the whole assignment — catch-up acks,
	// epoch gaps, and remaps whose delta body
	// measured larger than the full one. DeltaPushes+FullPushes is the
	// number of remap frames actually written, which can trail
	// RemapsPushed when slow subscribers coalesce events.
	DeltaPushes uint64
	FullPushes  uint64
}

// merge accumulates other into st (fleet aggregation): totals sum,
// instantaneous gauges sum too (each contributor tracks disjoint
// peers/watchers).
func (st *FleetStats) merge(other FleetStats) {
	st.ReportsReceived += other.ReportsReceived
	st.PeersTracked += other.PeersTracked
	st.RemapsPushed += other.RemapsPushed
	st.StalePeersEvicted += other.StalePeersEvicted
	st.Watchers += other.Watchers
	st.ReportsThrottled += other.ReportsThrottled
	st.LeaseConflicts += other.LeaseConflicts
	st.DeltaPushes += other.DeltaPushes
	st.FullPushes += other.FullPushes
}

// NetStats counts a placement daemon's transport-layer traffic — the
// observability face of the pipelined wire protocol. All
// counters are process-lifetime totals except InFlight (instantaneous)
// and MatrixCacheEntries (current table size).
type NetStats struct {
	// InFlight is the number of placement frames being served at the
	// moment of the snapshot, across every connection.
	InFlight uint64
	// PeakInFlight is the largest InFlight ever observed — the pipeline
	// depth the daemon has actually been driven to.
	PeakInFlight uint64
	// BytesIn / BytesOut count wire bytes received from and written to
	// placement clients (frame headers included).
	BytesIn  uint64
	BytesOut uint64
	// SparseMatrices counts request matrices that arrived in the sparse
	// run-length encoding rather than the dense row-major one.
	SparseMatrices uint64
	// FingerprintHits / FingerprintMisses count fingerprint-only
	// matrix references resolved from (or missing in) the daemon's
	// seen-matrix table. A miss makes the client resend the body.
	FingerprintHits   uint64
	FingerprintMisses uint64
	// MatrixCacheEntries is the current size of the seen-matrix table.
	MatrixCacheEntries int
}

// Service is the placement-as-a-service surface: everything the
// paper's in-process affinity module needs, shaped so the
// implementation can live in another process or on another node. The
// in-process implementation is LocalService; orwlnet provides the
// remote stub.
type Service interface {
	// Place computes (or fetches from cache) an assignment for the
	// request.
	Place(ctx context.Context, req *PlaceRequest) (*PlaceResponse, error)
	// Topology returns the default machine the service places onto.
	// The returned tree is the caller's to keep: mutating it does not
	// reach the service's own topology.
	Topology(ctx context.Context) (*topology.Topology, error)
	// Stats returns the service description and traffic counters.
	Stats(ctx context.Context) (ServiceStats, error)
}

// LocalService implements Service directly on an Engine — the
// in-process deployment, and the backend cmd/orwlnetd exports over the
// wire.
type LocalService struct {
	eng    *Engine
	places atomic.Uint64

	recMu sync.Mutex
	recs  []*Reconciler

	// diag memoises the quality diagnostics (TreeMatch cost and
	// cross-NUMA volume) per (matrix, binding) pair. Their walk covers the
	// full matrix, which on a warm cache hit would otherwise dominate the
	// call: the assignment comes back memoised in microseconds and the
	// diagnostics recompute it from scratch every time.
	diagMu sync.Mutex
	diag   map[diagKey]diagVal
}

// diagKey identifies a diagnostics result: the diagnostics depend only
// on the matrix contents and the compute binding, whatever strategy or
// options produced the binding.
type diagKey struct {
	matrix uint64 // comm.Fingerprint of the request matrix
	pus    uint64 // puFingerprint of the assignment's ComputePU
}

type diagVal struct {
	cost, crossNUMA float64
}

// diagCacheEntries bounds the diagnostics memo. Overflow clears the
// map outright: recomputing a handful of diagnostics after a workload
// shift is cheaper than maintaining LRU order on the hot path.
const diagCacheEntries = 256

// puFingerprint hashes a compute binding the same word-wise FNV-1a way
// comm.Fingerprint hashes a matrix.
func puFingerprint(pus []int) uint64 {
	h := uint64(fnvOffset64)
	h = (h ^ uint64(len(pus))) * fnvPrime64
	for _, pu := range pus {
		h = (h ^ uint64(uint(pu))) * fnvPrime64
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// diagnostics returns the memoised (cost, cross-NUMA volume) for the
// assignment over the matrix, computing and caching on miss. fp is the
// matrix fingerprint the caller already holds.
func (s *LocalService) diagnostics(fp uint64, m comm.Affinity, a *Assignment) (float64, float64) {
	key := diagKey{matrix: fp, pus: puFingerprint(a.ComputePU)}
	s.diagMu.Lock()
	if v, ok := s.diag[key]; ok {
		s.diagMu.Unlock()
		return v.cost, v.crossNUMA
	}
	s.diagMu.Unlock()

	// Compute outside the lock: concurrent misses may duplicate work
	// once, but never serialise distinct placements.
	var v diagVal
	if c, x, err := treematch.Quality(s.eng.top, m, a.ComputePU); err == nil {
		v = diagVal{c, x}
	}

	s.diagMu.Lock()
	if s.diag == nil || len(s.diag) >= diagCacheEntries {
		s.diag = make(map[diagKey]diagVal, 16)
	}
	s.diag[key] = v
	s.diagMu.Unlock()
	return v.cost, v.crossNUMA
}

// NewLocalService wraps an engine as a Service.
func NewLocalService(e *Engine) (*LocalService, error) {
	if e == nil {
		return nil, fmt.Errorf("placement: nil engine")
	}
	return &LocalService{eng: e}, nil
}

// Engine exposes the wrapped engine (for binding and direct pipeline
// access in the owning process).
func (s *LocalService) Engine() *Engine { return s.eng }

// Place implements Service.
func (s *LocalService) Place(ctx context.Context, req *PlaceRequest) (*PlaceResponse, error) {
	if req == nil {
		return nil, fmt.Errorf("placement: nil request")
	}
	name := s.eng.Topology().Attrs.Name
	if req.Machine != "" && !strings.EqualFold(req.Machine, name) {
		return nil, fmt.Errorf("placement: unknown machine %q (service places onto %q)", req.Machine, name)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	// Hash the matrix once (or take the caller's precomputed identity)
	// and reuse it for both the mapping-cache key and the diagnostics
	// memo — on a warm hit the hash IS the dominant cost.
	fp := req.MatrixFP
	if fp == 0 {
		fp = comm.Fingerprint(req.Matrix)
	}
	opt := req.Options // one run at every order, see PlaceRequest.Options
	opt.PartitionThreshold = -1
	a, hit, err := s.eng.ComputeHinted(req.Strategy, req.Matrix, fp, req.Entities, opt)
	if err != nil {
		return nil, err
	}
	s.places.Add(1)
	resp := &PlaceResponse{
		Machine:    name,
		Assignment: a,
		CacheHit:   hit,
		Cache:      s.eng.Stats(),
		ElapsedNS:  time.Since(start).Nanoseconds(),
	}
	if !comm.NilAffinity(req.Matrix) && !a.Unbound {
		// Quality diagnostics need both a matrix and an actual binding;
		// failures here are diagnostic-only and never fail the call.
		resp.Cost, resp.CrossNUMAVolume = s.diagnostics(fp, req.Matrix, a)
	}
	return resp, nil
}

// Topology implements Service. The engine's tree is returned as a deep
// copy (the same serialisation round trip a remote caller gets): an
// in-process caller mutating the result cannot desynchronise the
// engine's cached topology signature from its tree, which would
// corrupt cache keying.
func (s *LocalService) Topology(ctx context.Context) (*topology.Topology, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.eng.Topology().Clone()
}

// AttachReconciler registers a feedback loop with the service, so its
// epoch/drift/remap counters surface through Stats (and, remotely,
// through the stats payload).
func (s *LocalService) AttachReconciler(r *Reconciler) {
	if r == nil {
		return
	}
	s.recMu.Lock()
	s.recs = append(s.recs, r)
	s.recMu.Unlock()
}

// adaptiveStats merges the counters of every attached reconciler.
func (s *LocalService) adaptiveStats() AdaptiveStats {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	var st AdaptiveStats
	for _, r := range s.recs {
		st.merge(r.Stats())
	}
	return st
}

// Stats implements Service.
func (s *LocalService) Stats(ctx context.Context) (ServiceStats, error) {
	if err := ctx.Err(); err != nil {
		return ServiceStats{}, err
	}
	return ServiceStats{
		TopologyName:      s.eng.Topology().Attrs.Name,
		TopologySignature: s.eng.TopologySignature(),
		Strategies:        Names(),
		Machines:          []string{s.eng.Topology().Attrs.Name},
		Places:            s.places.Load(),
		Cache:             s.eng.Stats(),
		Adaptive:          s.adaptiveStats(),
	}, nil
}
