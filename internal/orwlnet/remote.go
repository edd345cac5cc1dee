package orwlnet

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// RemoteService is the client-side stub of a placement service served
// by an orwlnet server: it implements placement.Service over the wire
// protocol, so the affinity module (and any other consumer of the
// Service interface) is oblivious to whether the engine runs in
// process or in a remote daemon.
//
// A stub may hold a pool of connections to the same daemon
// (DialPlacementService with WithPoolSize): placement calls spread
// round-robin across the pool, and many calls pipeline on each
// connection besides. Topology/Stats ride the primary connection.
type RemoteService struct {
	// poolMu guards pool, whose first slot is the primary connection:
	// revive swaps dead connections for freshly dialed ones in place,
	// so calls racing a revival see either the dead or the new
	// connection, never a torn slice. closed is set under it by Close,
	// after which nothing dials again; reviving admits one revival at
	// a time, so calls failing together dial each dead slot once.
	poolMu   sync.RWMutex
	pool     []*Client
	closed   atomic.Bool
	reviving atomic.Bool
	next     atomic.Uint64

	// known tracks matrix fingerprints this stub believes the daemon's
	// seen-matrix table holds — the basis for sending fingerprint-only
	// requests. Shared across the pool, because the server table is.
	known *fpSet

	// base is the last acknowledged observed window of lease baseLease,
	// what ReportObserved base-codes that lease's next window against.
	baseMu    sync.Mutex
	baseLease uint64
	base      *reportBase

	// addr and dialOpts remember how the stub was dialed, so a remap
	// subscription can redial and resubscribe — and revive can replace
	// dead pooled connections — when a connection dies.
	addr     string
	dialOpts []DialOption

	// retry paces retried calls and watch resubscribes: defaultRetry,
	// shortened only by tests.
	retry retrySchedule
}

var _ placement.Service = (*RemoteService)(nil)

// DialPlacementService dials a placement daemon with the given
// options — notably WithPoolSize(n), which opens n connections and
// spreads placement calls across them. Closing the returned stub
// closes every pooled connection.
func DialPlacementService(ctx context.Context, addr string, opts ...DialOption) (*RemoteService, error) {
	cfg := applyDialOptions(opts)
	pool := make([]*Client, 0, cfg.poolSize)
	for i := 0; i < cfg.poolSize; i++ {
		c, err := dialContext(ctx, addr, opts...)
		if err != nil {
			for _, p := range pool {
				p.Close()
			}
			return nil, err
		}
		pool = append(pool, c)
	}
	return &RemoteService{pool: pool, known: newFPSet(knownFingerprints), addr: addr, dialOpts: opts, retry: defaultRetry}, nil
}

// WirePoolStats sums the wire byte counters across the stub's
// connection pool.
func (s *RemoteService) WirePoolStats() (bytesIn, bytesOut uint64) {
	s.poolMu.RLock()
	defer s.poolMu.RUnlock()
	for _, c := range s.pool {
		in, out := c.WireStats()
		bytesIn += in
		bytesOut += out
	}
	return bytesIn, bytesOut
}

// pick selects the connection for the next placement call, skipping
// dead pool slots when a live one exists (a retrying caller otherwise
// burns attempts on connections already known lost).
func (s *RemoteService) pick() *Client {
	s.poolMu.RLock()
	defer s.poolMu.RUnlock()
	if len(s.pool) == 1 {
		return s.pool[0]
	}
	start := s.next.Add(1)
	for i := 0; i < len(s.pool); i++ {
		c := s.pool[(start+uint64(i))%uint64(len(s.pool))]
		if !c.Dead() {
			return c
		}
	}
	return s.pool[start%uint64(len(s.pool))]
}

// primary returns the connection Topology/Stats and the fleet ops
// ride.
func (s *RemoteService) primary() *Client {
	s.poolMu.RLock()
	defer s.poolMu.RUnlock()
	return s.pool[0]
}

// revive redials every dead pooled connection and reports whether the
// stub is still open. Best-effort: a slot whose redial fails stays dead
// (the next retry attempt tries again), and a call that finds another
// revival under way leaves the pool to it. The dials run without the
// pool lock, so calls picking a connection meanwhile do not wait on
// them.
func (s *RemoteService) revive(ctx context.Context) bool {
	if s.closed.Load() {
		return false
	}
	if !s.reviving.CompareAndSwap(false, true) {
		return true
	}
	defer s.reviving.Store(false)
	s.poolMu.RLock()
	dead := slices.DeleteFunc(slices.Clone(s.pool), func(c *Client) bool { return !c.Dead() })
	s.poolMu.RUnlock()
	for _, c := range dead {
		nc, err := dialContext(ctx, s.addr, s.dialOpts...)
		if err != nil {
			continue
		}
		s.poolMu.Lock()
		if s.closed.Load() {
			nc.Close() // Close ran during the dial
		} else {
			c.Close()
			s.pool[slices.Index(s.pool, c)] = nc
		}
		s.poolMu.Unlock()
	}
	return true
}

// knownFingerprints bounds the client-side believed-known set. Kept
// larger than the server's table so the client rarely believes more
// than the server holds; a stale belief only costs one ErrUnknownMatrix
// round trip before the body is resent.
const knownFingerprints = 256

// memoMaxBytes bounds the slices and name one fpSet memo retains, so a
// full set retains at most knownFingerprints × 32 KiB = 8 MiB. A
// 160-task assignment takes 3.8 KB.
const memoMaxBytes = 32 << 10

// fpSet is a small mutex-guarded LRU set of matrix fingerprints.
type fpSet struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently confirmed; values are *fpEntry
	m     map[uint64]*list.Element
}

// fpEntry is one believed-known fingerprint. memo is the assignment
// the last placement response for it decoded to: the next response
// decodes to memo itself iff it encodes every one of memo's values.
type fpEntry struct {
	fp   uint64
	memo atomic.Pointer[placement.Assignment]
}

func newFPSet(max int) *fpSet {
	return &fpSet{max: max, order: list.New(), m: make(map[uint64]*list.Element)}
}

func (s *fpSet) has(fp uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[fp]
	if ok {
		s.order.MoveToFront(el)
	}
	return ok
}

// remember marks fp known and returns its entry.
func (s *fpSet) remember(fp uint64) *fpEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[fp]; ok {
		s.order.MoveToFront(el)
		return el.Value.(*fpEntry)
	}
	e := &fpEntry{fp: fp}
	s.m[fp] = s.order.PushFront(e)
	for s.order.Len() > s.max {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.m, oldest.Value.(*fpEntry).fp)
	}
	return e
}

func (s *fpSet) forget(fp uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[fp]; ok {
		s.order.Remove(el)
		delete(s.m, fp)
	}
}

// keep makes a the entry's memo unless its slices and name exceed
// memoMaxBytes.
func (e *fpEntry) keep(a *placement.Assignment) {
	if a != nil && a != e.memo.Load() && 8*(len(a.ComputePU)+len(a.ControlPU)+len(a.CoreOf))+len(a.Strategy) <= memoMaxBytes {
		e.memo.Store(a)
	}
}

// Place implements placement.Service: the request is serialised,
// computed by the remote engine, and the response decoded — including
// the remote cache/latency diagnostics.
//
// A matrix the daemon has already seen is sent as its fingerprint
// reference; an ErrUnknownMatrix answer (evicted, daemon restarted)
// triggers one transparent retry with the full body.
func (s *RemoteService) Place(ctx context.Context, req *placement.PlaceRequest) (*placement.PlaceResponse, error) {
	if req == nil {
		return nil, fmt.Errorf("orwlnet: nil placement request")
	}
	var resp *placement.PlaceResponse
	err := s.retryCall(ctx, func(ctx context.Context) error {
		var err error
		resp, err = s.placeOnce(ctx, req)
		return err
	})
	return resp, err
}

// placeOnce is one Place attempt on one picked connection (including
// the transparent ErrUnknownMatrix body resend, which is a protocol
// recovery, not a failure retry).
func (s *RemoteService) placeOnce(ctx context.Context, req *placement.PlaceRequest) (*placement.PlaceResponse, error) {
	c := s.pick()
	// The encoder takes the caller's precomputed identity when offered
	// (a steady workload then never re-hashes on the client side);
	// otherwise it folds the fingerprint in the walk that encodes the
	// body.
	var fp uint64
	payload, err := s.placeCall(ctx, c, func(dst []byte) (out []byte, err error) {
		out, fp, err = encodePlaceRequest(dst, req, s.known.has)
		return out, err
	})
	if errors.Is(err, ErrUnknownMatrix) {
		// The daemon no longer holds the body this reference named:
		// drop the belief and resend the request with the body inline.
		s.known.forget(fp)
		payload, err = s.placeCall(ctx, c, func(dst []byte) ([]byte, error) {
			out, _, err := encodePlaceRequest(dst, req, nil)
			return out, err
		})
	}
	if err != nil {
		return nil, err
	}
	// The daemon decoded the body (or confirmed the reference): the next
	// request for this matrix can go fingerprint-only.
	var known *fpEntry
	if comm.NilAffinity(req.Matrix) {
		known = &fpEntry{} // a memo nothing else reads
	} else {
		known = s.known.remember(fp)
	}
	resp, _, err := decodePlaceResponse(payload, known.memo.Load())
	putPayloadBuf(payload)
	if err == nil {
		known.keep(resp.Assignment)
	}
	return resp, err
}

// placeCall encodes a place request into a pooled buffer (whose
// ownership passes to the connection's writer goroutine) and performs
// the opPlaceCompute RPC. The response body is a pooled buffer: the
// caller decodes it and recycles it with putPayloadBuf.
func (s *RemoteService) placeCall(ctx context.Context, c *Client, enc func([]byte) ([]byte, error)) ([]byte, error) {
	buf := getPayloadBuf()
	payload, err := enc(buf)
	if err != nil {
		putPayloadBuf(buf)
		return nil, err
	}
	return c.callPooled(ctx, opPlaceCompute, payload, true)
}

// Topology implements placement.Service: the served machine is
// transferred in its canonical JSON encoding, so the client-side tree
// hashes (placement.Signature) identically to the server's.
func (s *RemoteService) Topology(ctx context.Context) (*topology.Topology, error) {
	var top *topology.Topology
	err := s.retryCall(ctx, func(ctx context.Context) error {
		payload, err := s.primary().callCtx(ctx, opTopology, nil)
		if err != nil {
			return err
		}
		top, err = topology.FromJSON(payload)
		return err
	})
	return top, err
}

// Stats implements placement.Service.
func (s *RemoteService) Stats(ctx context.Context) (placement.ServiceStats, error) {
	var stats placement.ServiceStats
	err := s.retryCall(ctx, func(ctx context.Context) error {
		payload, err := s.primary().callCtx(ctx, opPlaceStats, nil)
		if err != nil {
			return err
		}
		stats, err = decodeServiceStats(payload)
		return err
	})
	return stats, err
}

// Close closes every pooled connection, reporting the first error. A
// closed stub dials nothing again: its calls fail, and its watches end
// when their connection next dies.
func (s *RemoteService) Close() error {
	s.poolMu.Lock()
	defer s.poolMu.Unlock()
	s.closed.Store(true)
	var first error
	for _, c := range s.pool {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
