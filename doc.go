// Package orwlplace reproduces "Automatic, Abstracted and Portable
// Topology-Aware Thread Placement" (Gustedt, Jeannot, Mansouri; IEEE
// CLUSTER 2017) and grows it into placement-as-a-service.
//
// This root package is the public facade — the curated surface
// external consumers import instead of internal/:
//
//   - Service, PlaceRequest, PlaceResponse: the context-aware,
//     transport-agnostic placement contract (strategy + matrix +
//     optional machine selector in, assignment + serving machine +
//     cost/cache/latency diagnostics out), including PlaceBatch for
//     fanning a request slice across a fleet in one call.
//   - NewService: the in-process deployment, a placement engine
//     (strategy registry + LRU mapping cache) behind the interface.
//   - NewFleet: the multi-machine deployment, one engine per named
//     machine behind the same interface, with a default machine and
//     PlaceAcross for one-RPC cross-machine comparisons.
//   - DialPlacement: the remote deployment, a stub speaking the
//     versioned orwlnetd wire protocol to a placement daemon.
//   - Strategies, Machines, Machine, HostTopology: the strategy
//     registry and topology discovery.
//
// The layering below the facade: internal/core keeps the paper-named
// affinity module (ORWL_AFFINITY gating and the three-step
// DependencyGet / AffinityCompute / AffinitySet API) as a thin shim
// over Service — extraction and binding are local, the compute step
// goes wherever the service lives. internal/placement owns the engine
// (pipeline, registry, cache) and the Service contract.
// internal/orwlnet carries both ORWL location sharing and the
// placement RPCs over one multiplexed, length-prefixed,
// versioned TCP protocol, served by cmd/orwlnetd. The
// substrates — internal/topology, internal/treematch, internal/orwl,
// internal/perfsim, internal/comm — are unchanged in role; the
// benchmark harness in this package regenerates every table and
// figure of the paper's evaluation. See DESIGN.md (including the
// PROTOCOL section) and EXPERIMENTS.md.
package orwlplace
