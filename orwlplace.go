package orwlplace

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"orwlplace/internal/comm"
	"orwlplace/internal/core"
	"orwlplace/internal/orwl"
	"orwlplace/internal/orwlnet"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// This file is the public facade: the curated surface external
// consumers import instead of reaching into internal/. It re-exports
// the placement Service contract, the strategy table, topology
// discovery, and the two deployments of the service — in-process
// (NewService) and remote (DialPlacement, speaking the orwlnetd wire
// protocol).

// Service is the placement-as-a-service contract: Place, Topology,
// Stats — context-aware and transport-agnostic.
type Service = placement.Service

// PlaceRequest asks a Service for an assignment.
type PlaceRequest = placement.PlaceRequest

// PlaceResponse carries the assignment plus cache/cost/latency
// diagnostics.
type PlaceResponse = placement.PlaceResponse

// ServiceStats describes a Service: machine, strategies, counters.
type ServiceStats = placement.ServiceStats

// Assignment is where every compute (and control) entity goes. An
// Assignment handed out by a Service, a PlaceResponse or a fleet Remap
// is shared with the service's caches: read it, and Clone it before
// editing.
type Assignment = placement.Assignment

// Options tunes the mapping algorithms.
type Options = placement.Options

// CacheStats counts mapping-cache traffic.
type CacheStats = placement.CacheStats

// Matrix is a communication matrix: entry (i,j) is the volume
// exchanged between entities i and j.
type Matrix = comm.Matrix

// Topology is a machine's hardware tree.
type Topology = topology.Topology

// Strategy names accepted by every Service built from this module's
// strategy table.
const (
	// TreeMatch is the paper's topology-and-communication-aware
	// strategy (Algorithm 1).
	TreeMatch = placement.TreeMatch
	// Unbound is the no-binding baseline: the OS scheduler decides.
	Unbound = placement.None
)

// Fleet is a placement service routing across a set of named machines
// — one engine (strategy table + mapping cache) per topology and a
// default machine for requests that name none. It implements Service,
// so everything that consumes a single-machine service (core.Module,
// the daemon, the RPC layer) serves a fleet unchanged, and PlaceAcross
// compares its machines with one Place each.
type Fleet = placement.MultiService

// ServiceOption tunes the engines behind NewService/NewFleet.
type ServiceOption = placement.EngineOption

// WithCacheEntries bounds each engine's mapping cache (0 disables
// caching) — the facade face of the engine option, threaded through
// NewService and NewFleet so external deployments size the cache from
// the outside.
func WithCacheEntries(n int) ServiceOption { return placement.WithCacheEntries(n) }

// NewFleet builds an in-process fleet service over the named machines
// (resolved like Machine); the first name is the default machine.
// Options apply to every machine's engine.
func NewFleet(machines []string, opts ...ServiceOption) (*Fleet, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("orwlplace: fleet needs at least one machine")
	}
	fleet := placement.NewMultiService()
	for _, name := range machines {
		top, err := Machine(name)
		if err != nil {
			return nil, err
		}
		if err := fleet.AddMachine(name, top, opts...); err != nil {
			return nil, err
		}
	}
	return fleet, nil
}

// NewMatrix returns an n x n zero communication matrix.
func NewMatrix(n int) *Matrix { return comm.NewMatrix(n) }

// Strategies lists the strategy names in comparison-row order.
func Strategies() []string { return placement.Names() }

// Machines lists the discoverable machine names.
func Machines() []string { return topology.MachineNames() }

// Machine builds the named machine ("smp12e5", "tinyht", ...).
func Machine(name string) (*Topology, error) { return topology.ByName(name) }

// HostTopology approximates the machine this process runs on.
func HostTopology() *Topology { return topology.Host() }

// NewService builds an in-process placement service for a machine: a
// placement engine (strategy table + mapping cache) behind the
// Service interface.
func NewService(top *Topology, opts ...ServiceOption) (Service, error) {
	eng, err := placement.NewEngine(top, opts...)
	if err != nil {
		return nil, err
	}
	return placement.NewLocalService(eng)
}

// RemotePlacement is a connection (or connection pool) to a remote
// placement daemon (cmd/orwlnetd). It implements Service; Close
// releases every connection.
type RemotePlacement = orwlnet.RemoteService

// DialOption tunes DialPlacement (WithPoolSize).
type DialOption = orwlnet.DialOption

// WithPoolSize opens n connections to the daemon and spreads placement
// calls across them — combined with the pipelined transport, the knob
// for driving a daemon at high placements/sec from one process.
func WithPoolSize(n int) DialOption { return orwlnet.WithPoolSize(n) }

// DialPlacement connects to a placement daemon, honouring the
// context's deadline, and agrees the wire protocol version. The stub
// survives a daemon restart: idempotent calls (Place, Topology, Stats,
// lease registration, observed reports) retry transient transport
// failures up to 4 attempts, backing off 50ms doubling to 2s with ±20%
// jitter and redialing dead pool connections; a remap watch
// resubscribes on the same schedule. Location operations never retry —
// their FIFO semantics are not idempotent.
func DialPlacement(ctx context.Context, addr string, opts ...DialOption) (*RemotePlacement, error) {
	return orwlnet.DialPlacementService(ctx, addr, opts...)
}

// RenderAssignment renders an assignment on a machine like the paper's
// Fig. 2: for every socket, the cores and the entities bound to them.
// names may be nil, in which case entities are shown by index.
func RenderAssignment(top *Topology, a *Assignment, names []string) string {
	if a == nil {
		return "(no assignment)\n"
	}
	return core.RenderMapping(a.Mapping(top), names)
}

// PlaceOn is the one-call convenience: place n entities communicating
// per matrix on the service's default machine with the named strategy.
func PlaceOn(ctx context.Context, svc Service, strategy string, m *Matrix, n int) (*PlaceResponse, error) {
	if svc == nil {
		return nil, fmt.Errorf("orwlplace: nil service")
	}
	return svc.Place(ctx, &PlaceRequest{Strategy: strategy, Matrix: m, Entities: n})
}

// Program is the ORWL runtime instance adaptive placement re-binds.
type Program = orwl.Program

// Source is the seam for step 1 of the pipeline: where the
// communication affinity comes from — the declared handle graph, the
// runtime-observed traffic, or a fixed trace.
type Source = placement.Source

// DeclaredSource wraps a program's declared dependency graph (the
// paper's schedule-barrier extraction) as a source.
func DeclaredSource(prog *Program) Source { return placement.Declared(prog) }

// ObservedSource wraps a program's runtime-measured traffic as a
// windowed source: every extraction consumes the epoch since the
// previous one — the adaptive loop's diet.
func ObservedSource(prog *Program) Source { return placement.ObservedWindow(prog) }

// FixedSource wraps a constant matrix (a replayed trace) as a source.
func FixedSource(label string, m *Matrix) Source { return placement.Fixed(label, m) }

// Adaptive is the epoch-driven re-placement reconciler: it samples an
// observed-traffic source, measures drift against the matrix backing
// the current mapping, and re-places through TreeMatch when the
// modeled gain beats the modeled migration cost.
type Adaptive = placement.Reconciler

// AdaptiveConfig tunes an Adaptive reconciler.
type AdaptiveConfig = placement.AdaptiveConfig

// AdaptiveStats counts a reconciler's epochs, drift alarms and remaps;
// ServiceStats carries the aggregate for a service's attached loops.
type AdaptiveStats = placement.AdaptiveStats

// EpochReport describes one reconciliation epoch.
type EpochReport = placement.EpochReport

// Drift measures structural change between two communication matrices
// in [0, 1]: 0 for the same pattern (at any volume), 1 for disjoint
// flows.
func Drift(a, b *Matrix) float64 { return placement.Drift(a, b) }

// NewAdaptive builds a re-placement loop for prog on an in-process
// service — NewService's result, or one machine of an in-process
// Fleet (the fleet itself routes across machines; pick the one the
// program runs on with fleet.MachineService(name) or pass the fleet
// to place on its default machine). The source is typically
// ObservedSource(prog). The reconciler registers with the service, so
// its epoch/drift/remap counters surface through Stats (and the
// fleet's aggregate). Remote services are rejected: re-binding needs
// the program's runtime state, which lives in this process.
func NewAdaptive(svc Service, src Source, prog *Program, cfg AdaptiveConfig) (*Adaptive, error) {
	if fleet, ok := svc.(*Fleet); ok {
		machine, err := fleet.MachineService("")
		if err != nil {
			return nil, err
		}
		svc = machine
	}
	local, ok := svc.(*placement.LocalService)
	if !ok {
		return nil, fmt.Errorf("orwlplace: adaptive placement needs an in-process service (got %T): the loop re-binds local runtime state", svc)
	}
	rec, err := placement.NewReconciler(local.Engine(), src, prog, cfg)
	if err != nil {
		return nil, err
	}
	local.AttachReconciler(rec)
	return rec, nil
}

// acrossParallelism bounds the Place calls one PlaceAcross keeps in
// flight. Each may run a full TreeMatch on the serving side, so a long
// machine list must not turn into as many concurrent computes; calls
// beyond the bound queue on the semaphore, and a comparison over a
// handful of machines is unaffected.
var acrossParallelism = max(4, 2*runtime.GOMAXPROCS(0))

// PlaceAcross places one workload onto every named machine of a fleet
// service, one Place per machine, concurrently: the paper's
// cross-machine comparison. Responses are positional per machine; a
// machine's failure is a response with Err set, so it cannot void its
// siblings. The call itself only fails when ctx ends: without that
// check every in-flight machine would report "context canceled" in its
// Err field and the comparison would look like per-machine failures.
func PlaceAcross(ctx context.Context, svc Service, strategy string, m *Matrix, n int, machines []string) ([]*PlaceResponse, error) {
	if svc == nil {
		return nil, fmt.Errorf("orwlplace: nil service")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]*PlaceResponse, len(machines))
	sem := make(chan struct{}, acrossParallelism)
	var wg sync.WaitGroup
	for i, machine := range machines {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, machine string) {
			defer wg.Done()
			defer func() { <-sem }()
			resp, err := svc.Place(ctx, &PlaceRequest{Machine: machine, Strategy: strategy, Matrix: m, Entities: n})
			if err != nil {
				resp = &PlaceResponse{Machine: machine, Err: err.Error()}
			}
			out[i] = resp
		}(i, machine)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
