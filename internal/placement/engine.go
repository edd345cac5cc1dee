package placement

import (
	"fmt"
	"sync"

	"orwlplace/internal/comm"
	"orwlplace/internal/lru"
	"orwlplace/internal/orwl"
	"orwlplace/internal/topology"
)

// defaultCacheEntries bounds the engine's mapping cache. A dynamic
// program oscillating between phases has a handful of distinct
// matrices; the experiments harness sweeps a few dozen workloads per
// machine. 256 covers both with room to spare.
const defaultCacheEntries = 256

// Engine owns the placement pipeline for one machine: extraction from
// a source and strategy dispatch with mapping memoisation; the binding
// commit is the free Bind. It is safe for concurrent use.
type Engine struct {
	top     *topology.Topology
	topoSig uint64

	mu     sync.Mutex
	cache  *lru.Cache[cacheKey, *cacheEntry]
	stats  CacheStats
	flight map[cacheKey]*flightCall
}

// flightCall is one in-progress strategy computation. Concurrent
// ComputeHinted calls for the same uncached key coalesce onto it
// (singleflight): the first caller runs the strategy, the others wait
// on done and share the leader's entry. Without this, a busy daemon
// receiving a burst of identical requests would run the same expensive
// TreeMatch once per request — a thundering herd the cache alone
// cannot stop, since entries only appear after a compute finishes.
type flightCall struct {
	done chan struct{}
	ent  *cacheEntry // the leader's result, shared once done is closed
	err  error
}

// CacheStats counts mapping-cache traffic.
type CacheStats struct {
	// Hits is the number of ComputeHinted calls served from the cache.
	Hits uint64
	// Misses is the number of ComputeHinted calls that ran a strategy.
	Misses uint64
	// Entries is the current number of cached assignments.
	Entries int
}

// EngineOption customises a new engine.
type EngineOption func(*Engine)

// WithCacheEntries bounds the mapping cache (0 disables caching).
func WithCacheEntries(n int) EngineOption {
	return func(e *Engine) { e.cache = lru.New[cacheKey, *cacheEntry](n) }
}

// NewEngine creates a placement engine for one machine.
func NewEngine(top *topology.Topology, opts ...EngineOption) (*Engine, error) {
	if top == nil {
		return nil, fmt.Errorf("placement: nil topology")
	}
	e := &Engine{
		top:     top,
		topoSig: Signature(top),
		cache:   lru.New[cacheKey, *cacheEntry](defaultCacheEntries),
		flight:  make(map[cacheKey]*flightCall),
	}
	for _, o := range opts {
		o(e)
	}
	return e, nil
}

// Topology returns the machine the engine places onto.
func (e *Engine) Topology() *topology.Topology { return e.top }

// TopologySignature returns the cached Signature of the engine's
// machine, so callers comparing machines need not re-marshal the
// tree.
func (e *Engine) TopologySignature() uint64 { return e.topoSig }

// Extract produces the communication affinity from a source — step 1
// of the pipeline (orwl_dependency_get), behind the Source seam: the
// declared handle graph, the runtime-observed traffic, or a fixed
// trace all enter the pipeline here, in whichever representation the
// source stores them.
func (e *Engine) Extract(src Source) (comm.Affinity, error) {
	if src == nil {
		return nil, fmt.Errorf("placement: extract from nil source")
	}
	a, err := src.Affinity()
	if err != nil {
		return nil, err
	}
	if comm.NilAffinity(a) {
		return nil, fmt.Errorf("placement: source %q produced a nil affinity", src.Name())
	}
	return a, nil
}

// ComputeHinted runs the named strategy — step 2 of the pipeline
// (orwl_affinity_compute) — memoising the result under
// comm.Fingerprint(m), and reports whether the cache served it. fp is
// that fingerprint when the caller already knows it (zero means
// unknown): hashing dominates a warm hit. n may be zero when m is
// non-nil, in which case the matrix order is used; any other n must
// equal the order. The treematch strategy partitions above
// opt.PartitionThreshold; callers promising one run pin it to -1. The
// assignment is shared with the cache and every caller of the same key:
// it is read-only, and a caller that edits one edits a Clone.
func (e *Engine) ComputeHinted(strategy string, m comm.Affinity, fp uint64, n int, opt Options) (*Assignment, bool, error) {
	ent, hit, err := e.computeEntry(strategy, m, fp, n, opt)
	if err != nil {
		return nil, false, err
	}
	return ent.a, hit, nil
}

// computeEntry is ComputeHinted returning the cache entry, whose
// diagnostics LocalService reads.
func (e *Engine) computeEntry(strategy string, m comm.Affinity, fp uint64, n int, opt Options) (*cacheEntry, bool, error) {
	treeMatch := strategy == TreeMatch
	if !treeMatch && strategy != None {
		if _, ok := policy(strategy); !ok {
			return nil, false, fmt.Errorf("placement: unknown strategy %q (have %v)", strategy, Names())
		}
	}
	if treeMatch && comm.NilAffinity(m) {
		// Refused before the cache, so it is not counted as a miss.
		return nil, false, fmt.Errorf("placement: %s: nil communication matrix", strategy)
	}
	n, err := entities(m, n)
	if err != nil {
		return nil, false, err
	}
	key := cacheKey{
		topo:     e.topoSig,
		entities: n,
		strategy: strategy,
	}
	if treeMatch {
		// Only TreeMatch reads the matrix and the options: the other
		// strategies keep key.matrix and key.options zero, so identical
		// requests share one entry across matrices and option values —
		// the hint must not split them.
		if key.matrix = fp; key.matrix == 0 {
			key.matrix = comm.Fingerprint(m)
		}
		key.options = opt.Canonical()
	}
	return e.computeKeyed(key, strategy, func() (*Assignment, error) {
		return mapStrategy(e.top, strategy, m, n, opt)
	})
}

// entities resolves a request's entity count against its matrix: zero
// means the order, and any other count must equal it — a strategy would
// otherwise place the matrix's order, or n, depending on whether it
// reads the matrix.
func entities(m comm.Affinity, n int) (int, error) {
	if comm.NilAffinity(m) {
		return n, nil
	}
	if n == 0 {
		return m.Order(), nil
	}
	if n != m.Order() {
		return 0, fmt.Errorf("placement: %d entities for a matrix of order %d", n, m.Order())
	}
	return n, nil
}

// computeKeyed serves one cache key: from the cache, by joining an
// in-flight computation of the same key, or by running run itself
// (singleflight leader). The bool result reports "served without a
// compute".
func (e *Engine) computeKeyed(key cacheKey, strategy string, run func() (*Assignment, error)) (*cacheEntry, bool, error) {
	e.mu.Lock()
	if ent, ok := e.cache.Get(key); ok {
		e.stats.Hits++
		e.mu.Unlock()
		return ent, true, nil
	}
	if c, ok := e.flight[key]; ok {
		// Singleflight: another goroutine is already computing this
		// key. Wait for it and share its result instead of running the
		// strategy again. Counted as a hit: the call was served without
		// a compute.
		e.mu.Unlock()
		<-c.done
		if c.err != nil {
			return nil, false, c.err
		}
		e.mu.Lock()
		e.stats.Hits++
		e.mu.Unlock()
		return c.ent, true, nil
	}
	c := &flightCall{done: make(chan struct{})}
	e.flight[key] = c
	e.stats.Misses++
	e.mu.Unlock()

	// complete publishes the flight's outcome exactly once: clears the
	// entry, fills the cache on success, and unblocks the waiters.
	completed := false
	complete := func(stored *cacheEntry, err error) {
		completed = true
		e.mu.Lock()
		delete(e.flight, key)
		if stored != nil {
			e.cache.Put(key, stored)
		}
		e.mu.Unlock()
		c.ent = stored
		c.err = err
		close(c.done)
	}
	// A panicking strategy must not strand the flight entry: waiters
	// parked on done (and every future compute of this key) would
	// deadlock. Resolve the flight with an error and let the panic
	// propagate to the leader's caller.
	defer func() {
		if !completed {
			complete(nil, fmt.Errorf("placement: strategy %q panicked", strategy))
		}
	}()

	// The strategy runs outside the lock: TreeMatch on a large matrix
	// is the expensive path the cache exists for, and concurrent
	// computes of different keys must not serialise.
	a, err := run()
	if err != nil {
		complete(nil, err)
		return nil, false, err
	}
	// The leader, its followers and the cache share one entry.
	ent := &cacheEntry{a: a}
	complete(ent, nil)
	return ent, false, nil
}

// Bind commits an assignment to a program — step 3 of the pipeline
// (orwl_affinity_set). Unbound assignments are a no-op: the program
// simply keeps running under the OS scheduler. It is a free function
// because binding is purely local: a program that obtained its
// assignment from a remote placement service applies it without an
// engine of its own.
func Bind(prog *orwl.Program, a *Assignment) error {
	if prog == nil {
		return fmt.Errorf("placement: bind to nil program")
	}
	if a == nil {
		return fmt.Errorf("placement: bind nil assignment")
	}
	if a.Unbound {
		return nil
	}
	for task, pu := range a.ComputePU {
		prog.SetBinding(task, pu)
	}
	return nil
}

// BindTasks commits only the named tasks of an assignment to a program
// — the O(changed) re-bind behind a delta remap: when the control plane
// says which tasks moved, the other bindings are already in force and
// re-pinning them would only churn the scheduler. Task indices outside
// the assignment are an error (the moved set and the assignment must
// describe the same task space). Unbound assignments are a no-op, as in
// Bind.
func BindTasks(prog *orwl.Program, a *Assignment, tasks []int) error {
	if prog == nil {
		return fmt.Errorf("placement: bind to nil program")
	}
	if a == nil {
		return fmt.Errorf("placement: bind nil assignment")
	}
	if a.Unbound {
		return nil
	}
	for _, t := range tasks {
		if t < 0 || t >= len(a.ComputePU) {
			return fmt.Errorf("placement: bind task %d outside assignment of %d tasks", t, len(a.ComputePU))
		}
		prog.SetBinding(t, a.ComputePU[t])
	}
	return nil
}

// Stats returns a snapshot of the cache counters.
func (e *Engine) Stats() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.Entries = e.cache.Len()
	return st
}
