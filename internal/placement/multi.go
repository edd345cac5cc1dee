package placement

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"

	"orwlplace/internal/topology"
)

// MultiService routes placement requests across a fleet of named
// machines — one Engine (and therefore one mapping cache and one
// singleflight) per topology. It is the daemon-side answer to the
// paper's Table I testbeds: instead of one daemon process per
// machine, a single service holds every topology and
// `PlaceRequest.Machine` selects one.
//
// The first machine added is the default: requests that name no
// machine route there.
type MultiService struct {
	mu    sync.RWMutex
	svcs  map[string]*LocalService
	order []string // registration order, the default first
}

var _ Service = (*MultiService)(nil)

// NewMultiService returns an empty fleet router; add machines with
// AddMachine before serving.
func NewMultiService() *MultiService {
	return &MultiService{svcs: make(map[string]*LocalService)}
}

// AddMachine builds an engine for the topology and registers it under
// the fleet name. The first registration becomes the default machine.
// Names are identity keys for routing, so duplicates are an error.
func (m *MultiService) AddMachine(name string, top *topology.Topology, opts ...EngineOption) error {
	if name == "" {
		return fmt.Errorf("placement: fleet machine needs a name")
	}
	eng, err := NewEngine(top, opts...)
	if err != nil {
		return err
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
	return nil
}

// DefaultMachine returns the name unnamed requests route to ("" while
// the fleet is empty).
func (m *MultiService) DefaultMachine() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.defaultLocked()
}

func (m *MultiService) defaultLocked() string {
	if len(m.order) == 0 {
		return ""
	}
	return m.order[0]
}

// Machines lists the fleet machine names in registration order, so the
// default comes first.
func (m *MultiService) Machines() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return slices.Clone(m.order)
}

// service resolves a machine name ("" = default) to its per-machine
// service.
func (m *MultiService) service(name string) (*LocalService, string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if name == "" {
		name = m.defaultLocked()
	}
	svc, ok := m.svcs[name]
	if !ok {
		known := slices.Sorted(maps.Keys(m.svcs))
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
