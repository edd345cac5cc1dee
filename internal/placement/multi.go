package placement

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"orwlplace/internal/topology"
)

// MultiService routes placement requests across a fleet of named
// machines — one Engine (and therefore one mapping cache and one
// singleflight) per topology. It is the daemon-side answer to the
// paper's Table I testbeds: instead of one daemon process per machine
// and one RPC per request, a single service holds every topology,
// `PlaceRequest.Machine` selects one, and `PlaceBatch` fans a request
// slice across the fleet concurrently.
//
// The first machine added is the default (overridable with
// SetDefault): requests that name no machine route there.
type MultiService struct {
	mu    sync.RWMutex
	svcs  map[string]*LocalService
	order []string // registration order; Machines() lists default first
	def   string
}

var _ Service = (*MultiService)(nil)

// NewMultiService returns an empty fleet router; add machines with
// AddMachine/AddEngine before serving.
func NewMultiService() *MultiService {
	return &MultiService{svcs: make(map[string]*LocalService)}
}

// AddEngine registers an engine under a fleet machine name. The first
// registration becomes the default machine. Names are identity keys
// for routing, so duplicates are an error.
func (m *MultiService) AddEngine(name string, eng *Engine) error {
	if name == "" {
		return fmt.Errorf("placement: fleet machine needs a name")
	}
	if eng == nil {
		return fmt.Errorf("placement: nil engine for fleet machine %q", name)
	}
	svc, err := NewLocalService(eng)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.svcs[name]; dup {
		return fmt.Errorf("placement: fleet machine %q already registered", name)
	}
	m.svcs[name] = svc
	m.order = append(m.order, name)
	if m.def == "" {
		m.def = name
	}
	return nil
}

// AddMachine builds an engine for the topology and registers it under
// the fleet name — the convenience most callers (cmd/orwlnetd, the
// facade) want.
func (m *MultiService) AddMachine(name string, top *topology.Topology, opts ...EngineOption) error {
	eng, err := NewEngine(top, opts...)
	if err != nil {
		return err
	}
	return m.AddEngine(name, eng)
}

// SetDefault changes which machine unnamed requests route to.
func (m *MultiService) SetDefault(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.svcs[name]; !ok {
		return fmt.Errorf("placement: unknown fleet machine %q (have %v)", name, m.machinesLocked())
	}
	m.def = name
	return nil
}

// DefaultMachine returns the name unnamed requests route to ("" while
// the fleet is empty).
func (m *MultiService) DefaultMachine() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.def
}

// Machines lists the fleet machine names, default first, the rest in
// registration order.
func (m *MultiService) Machines() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.machinesLocked()
}

func (m *MultiService) machinesLocked() []string {
	out := make([]string, 0, len(m.order))
	if m.def != "" {
		out = append(out, m.def)
	}
	for _, name := range m.order {
		if name != m.def {
			out = append(out, name)
		}
	}
	return out
}

// service resolves a machine name ("" = default) to its per-machine
// service.
func (m *MultiService) service(name string) (*LocalService, string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if name == "" {
		name = m.def
	}
	svc, ok := m.svcs[name]
	if !ok {
		known := m.machinesLocked()
		sort.Strings(known)
		return nil, "", fmt.Errorf("placement: unknown machine %q (have %v)", name, known)
	}
	return svc, name, nil
}

// MachineService returns the named machine's in-process service (""
// selects the default) — the handle an adaptive reconciler attaches
// to when the program places through a fleet rather than a
// single-machine service.
func (m *MultiService) MachineService(name string) (*LocalService, error) {
	svc, _, err := m.service(name)
	return svc, err
}

// Place implements Service: the request routes to the machine it
// names, or to the default machine when it names none.
func (m *MultiService) Place(ctx context.Context, req *PlaceRequest) (*PlaceResponse, error) {
	if req == nil {
		return nil, fmt.Errorf("placement: nil request")
	}
	svc, name, err := m.service(req.Machine)
	if err != nil {
		return nil, err
	}
	// Routing is resolved here: the per-machine service gets a request
	// with the selector cleared (its own machine-name check is for
	// direct, fleet-less deployments), and the caller's request is
	// never mutated.
	routed := *req
	routed.Machine = ""
	resp, err := svc.Place(ctx, &routed)
	if err != nil {
		return nil, err
	}
	// The fleet name is the routing key (e.g. "tinyht"), which may
	// differ from the topology's display name ("TinyHT"); report the
	// name the caller can route with.
	resp.Machine = name
	return resp, nil
}

// PlaceBatch implements Service: the slots fan out concurrently, each
// onto its machine's engine. Identical slots on one machine collapse
// into a single compute through that engine's singleflight; slots on
// different machines never contend.
func (m *MultiService) PlaceBatch(ctx context.Context, reqs []*PlaceRequest) ([]*PlaceResponse, error) {
	return fanOutBatch(ctx, m.Place, reqs)
}

// Topology implements Service: the default machine's tree, as a deep
// copy (see LocalService.Topology).
func (m *MultiService) Topology(ctx context.Context) (*topology.Topology, error) {
	svc, _, err := m.service("")
	if err != nil {
		return nil, err
	}
	return svc.Topology(ctx)
}

// Stats implements Service: the default machine's identity, the fleet
// listing, and traffic counters aggregated across every machine.
func (m *MultiService) Stats(ctx context.Context) (ServiceStats, error) {
	if err := ctx.Err(); err != nil {
		return ServiceStats{}, err
	}
	def, _, err := m.service("")
	if err != nil {
		return ServiceStats{}, err
	}
	st := ServiceStats{
		TopologyName:      def.Engine().Topology().Attrs.Name,
		TopologySignature: def.Engine().TopologySignature(),
		Strategies:        Names(),
		Machines:          m.Machines(),
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, svc := range m.svcs {
		st.Places += svc.places.Load()
		cs := svc.Engine().Stats()
		st.Cache.Hits += cs.Hits
		st.Cache.Misses += cs.Misses
		st.Cache.Entries += cs.Entries
		st.Adaptive.merge(svc.adaptiveStats())
	}
	return st, nil
}

// MachineStats returns the per-machine service stats, keyed by fleet
// name — the disaggregated view behind the aggregate Stats.
func (m *MultiService) MachineStats(ctx context.Context) (map[string]ServiceStats, error) {
	m.mu.RLock()
	svcs := make(map[string]*LocalService, len(m.svcs))
	for name, svc := range m.svcs {
		svcs[name] = svc
	}
	m.mu.RUnlock()
	out := make(map[string]ServiceStats, len(svcs))
	for name, svc := range svcs {
		st, err := svc.Stats(ctx)
		if err != nil {
			return nil, err
		}
		out[name] = st
	}
	return out, nil
}
