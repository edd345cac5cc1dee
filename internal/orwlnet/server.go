package orwlnet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"orwlplace/internal/codec"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/orwl"
	"orwlplace/internal/placement"
)

// Server exports a set of named ORWL locations — and, when configured
// with WithPlacement, a placement service — to remote clients. Each
// client connection is served independently; a blocking Await occupies
// only its own goroutine, so one connection can multiplex many
// outstanding requests.
type Server struct {
	lis   net.Listener
	locs  map[string]*orwl.Location
	place placement.Service

	// ctrl is the fleet control plane (WithControlPlane): leases,
	// observed-report merging, daemon-hosted reconciliation and remap
	// subscriptions. Nil unless the daemon runs -adaptive.
	ctrl *ctrlplane.Controller

	// ctx is canceled by Close so placement calls arriving during
	// shutdown fail fast (a strategy already computing runs to
	// completion; Close waits for it).
	ctx    context.Context
	cancel context.CancelFunc

	// matrices is the seen-matrix table fingerprint-only requests
	// resolve against. Shared across connections: a pooled
	// client ships a matrix body once on any of its connections and
	// references it from all of them.
	matrices *matrixCache

	// idleTimeout, when positive, closes a connection that has sent no
	// bytes for the duration while nothing is in flight on it. Zero
	// (the default) keeps the historical wait-forever behaviour.
	idleTimeout time.Duration

	// reportCaps bounds what a single connection may feed the control
	// plane through opObservedReport: frame size, decoded row count and
	// a decoded-bytes/sec budget. The protocol's own limits are the
	// defaults; WithReportCaps tightens them for hostile fleets.
	reportCaps reportCaps

	// placeSem bounds concurrently *dispatched* placement ops across
	// all connections, so a pipelining client cannot fan one connection
	// out into unbounded compute goroutines. Location ops are exempt:
	// a Release must be able to overtake the blocked Awaits it unblocks,
	// and parking it behind a full semaphore would deadlock the FIFO.
	placeSem chan struct{}

	// Transport counters surfaced as placement.NetStats in the stats
	// payload.
	bytesIn       atomic.Uint64
	bytesOut      atomic.Uint64
	placeInFlight atomic.Int64
	peakInFlight  atomic.Uint64

	// Remap push counters surfaced as FleetStats.DeltaPushes /
	// FullPushes in the stats payload. They live on the server,
	// not the controller: the delta-vs-full choice is a wire concern the
	// transport-agnostic control plane never sees.
	deltaPushes atomic.Uint64
	fullPushes  atomic.Uint64

	mu       sync.Mutex
	closed   bool
	conns    map[net.Conn]struct{}
	handleID atomic.Uint64
	wg       sync.WaitGroup
}

// ServerOption customises a server.
type ServerOption func(*Server)

// WithPlacement exports a placement service alongside (or instead of)
// the locations.
func WithPlacement(svc placement.Service) ServerOption {
	return func(s *Server) { s.place = svc }
}

// WithControlPlane exports a fleet control plane: connections may
// register (machine, peer, task-range) leases, stream observed-traffic
// windows up, and subscribe to the controller's adopted remaps. The caller drives the controller's
// epochs (Controller.Run); the server only bridges its wire face.
func WithControlPlane(ctrl *ctrlplane.Controller) ServerOption {
	return func(s *Server) { s.ctrl = ctrl }
}

// reportCaps is the per-connection observed-report resource policy.
type reportCaps struct {
	// maxFrameBytes is the hard per-frame payload cap for
	// opObservedReport (0 = the protocol's maxMessage).
	maxFrameBytes int
	// bytesPerSec/burst, when bytesPerSec > 0, meter the report payload
	// bytes one connection may deliver (token bucket). Violations get a
	// retryable ErrRateLimited answer, not a dropped connection.
	bytesPerSec float64
	burst       float64
}

// WithReportCaps bounds observed-report traffic per connection: a hard
// per-frame payload cap and a sustained decoded-bytes/sec budget with a
// burst allowance. Zero values keep the defaults (64 MiB frames,
// unmetered). A report's rows are capped by the control plane's lease
// bound.
func WithReportCaps(maxFrameBytes int, bytesPerSec, burst float64) ServerOption {
	return func(s *Server) {
		if bytesPerSec > 0 && burst <= 0 {
			burst = bytesPerSec
		}
		s.reportCaps = reportCaps{maxFrameBytes: maxFrameBytes, bytesPerSec: bytesPerSec, burst: burst}
	}
}

// WithIdleTimeout closes connections that stay byte-silent for d with
// nothing in flight. A connection mid-request (an Await parked in the
// FIFO, a placement computing) is never reaped — only one that is
// both silent and empty. d <= 0 disables the timeout (the default).
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.idleTimeout = d }
}

// placeDispatchParallelism bounds concurrently dispatched placement
// ops per server: enough to saturate the machine, bounded so a
// pipelining client cannot balloon goroutines.
var placeDispatchParallelism = max(4, 2*runtime.GOMAXPROCS(0))

// NewServer wraps a listener and the locations to export (keyed by the
// names clients use). Locations may be empty only for a pure placement
// daemon (WithPlacement).
func NewServer(lis net.Listener, locs map[string]*orwl.Location, opts ...ServerOption) (*Server, error) {
	if lis == nil {
		return nil, fmt.Errorf("orwlnet: nil listener")
	}
	s := &Server{
		lis:      lis,
		locs:     locs,
		conns:    make(map[net.Conn]struct{}),
		matrices: newMatrixCache(defaultMatrixCacheEntries),
		placeSem: make(chan struct{}, placeDispatchParallelism),
	}
	for _, o := range opts {
		o(s)
	}
	if len(locs) == 0 && s.place == nil {
		return nil, fmt.Errorf("orwlnet: nothing to export (no locations, no placement service)")
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	return s, nil
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

// Serve accepts connections until Close; it returns nil after a clean
// shutdown.
func (s *Server) Serve() error {
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Close stops accepting, closes every connection and waits for the
// per-connection goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.cancel()
	err := s.lis.Close()
	s.wg.Wait()
	return err
}

// connState tracks the open requests of one client connection, whether
// its opHello handshake is done, and how many requests are
// mid-dispatch (the pipeline depth — the idle reaper must not close a
// silent connection that is merely waiting for its parked Awaits).
type connState struct {
	conn     net.Conn
	mu       sync.Mutex
	writeMu  sync.Mutex
	reqs     map[uint64]*orwl.RawRequest
	hello    atomic.Bool
	inflight atomic.Int64

	// subs are the connection's live remap subscriptions (controller
	// ids), unsubscribed when the connection dies so their pushers
	// drain and exit.
	subs map[uint64]struct{}

	// Observed-report byte-budget token bucket (reportCaps.bytesPerSec).
	budgetMu     sync.Mutex
	reportBucket float64
	reportFilled time.Time
}

// takeReportBudget draws n payload bytes from the connection's report
// byte budget, reporting whether the budget covered them.
func (st *connState) takeReportBudget(n int, caps reportCaps) bool {
	st.budgetMu.Lock()
	defer st.budgetMu.Unlock()
	now := time.Now()
	if st.reportFilled.IsZero() {
		st.reportBucket = caps.burst
	} else {
		st.reportBucket += now.Sub(st.reportFilled).Seconds() * caps.bytesPerSec
		if st.reportBucket > caps.burst {
			st.reportBucket = caps.burst
		}
	}
	st.reportFilled = now
	if st.reportBucket < float64(n) {
		return false
	}
	st.reportBucket -= float64(n)
	return true
}

// countingReader counts the bytes readMessage has consumed, so the
// idle-timeout logic can tell "silent" (deadline fired, zero bytes
// consumed — the frame boundary is intact, maybe idle) from "stalled
// mid-frame" (a partial frame was consumed, then silence — the framing
// is unrecoverable, drop the connection). It sits ON TOP of the
// connection's bufio layer: read-ahead the buffer holds but
// readMessage has not consumed must not count, or an idle connection
// whose next frame was half-buffered would look mid-frame.
type countingReader struct {
	r io.Reader
	n atomic.Uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(uint64(n))
	return n, err
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	st := &connState{conn: conn, reqs: make(map[uint64]*orwl.RawRequest)}
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		// Remap subscriptions die with their connection: unsubscribing
		// closes each pusher's event channel, so the pusher goroutines
		// drain and exit.
		st.mu.Lock()
		subs := st.subs
		st.subs = nil
		st.mu.Unlock()
		for id := range subs {
			s.ctrl.Unsubscribe(id)
		}
		// A dead client's queued requests must not stall the FIFO (its
		// grant would never be released) or a draining Close (a handler
		// goroutine blocked in Await would never return): withdraw them.
		st.mu.Lock()
		for id, req := range st.reqs {
			req.Cancel()
			delete(st.reqs, id)
		}
		st.mu.Unlock()
	}()
	// Buffered reads turn a pipelined burst of small frames into one
	// read syscall; the counting layer above the buffer keeps the
	// idle-timeout bookkeeping in consumed-byte terms.
	cr := &countingReader{r: bufio.NewReaderSize(conn, 32<<10)}
	for {
		if s.idleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		before := cr.n.Load()
		msg, err := readMessage(cr, pooledRequest)
		if err != nil {
			var nerr net.Error
			if s.idleTimeout > 0 && errors.As(err, &nerr) && nerr.Timeout() && cr.n.Load() == before {
				// Byte-silent for a full idle period. With requests in
				// flight the client is legitimately waiting on us (a
				// parked Await, a long placement): keep listening.
				// With nothing in flight, reap the connection.
				if st.inflight.Load() > 0 {
					continue
				}
			}
			// Client gone, protocol error, or a timeout that struck
			// mid-frame (partial header/body read): the stream cannot be
			// re-synchronised, drop the connection.
			return
		}
		s.bytesIn.Add(13 + uint64(len(msg.payload)))
		st.inflight.Add(1)
		s.wg.Add(1)
		go func(m message) {
			defer s.wg.Done()
			defer st.inflight.Add(-1)
			if placementOp(m.op) {
				// Bound placement dispatch: a pipelining client may have
				// hundreds of frames in flight, but only this many compute
				// concurrently; the rest queue here in FIFO-ish order.
				s.placeSem <- struct{}{}
				defer func() { <-s.placeSem }()
				depth := s.placeInFlight.Add(1)
				defer s.placeInFlight.Add(-1)
				for {
					peak := s.peakInFlight.Load()
					if uint64(depth) <= peak || s.peakInFlight.CompareAndSwap(peak, uint64(depth)) {
						break
					}
				}
			}
			payload, pooled, err := s.handle(st, m)
			if pooledRequest(m.callID, m.op) {
				putPayloadBuf(m.payload) // handle copied out what it keeps
			}
			resp := message{callID: m.callID, op: statusOK, payload: payload}
			if err != nil {
				resp.op = statusOf(err)
				resp.payload = []byte(err.Error())
			}
			st.writeMu.Lock()
			werr := writeMessage(conn, resp)
			st.writeMu.Unlock()
			s.bytesOut.Add(13 + uint64(len(resp.payload)))
			if pooled {
				// The payload came from the encode pool and is dead now
				// that it has been written (or dropped on error).
				putPayloadBuf(payload)
			}
			if werr != nil {
				conn.Close()
			}
		}(msg)
	}
}

// pooledRequest picks the request bodies read into payloadPool
// buffers: ops whose decoders copy out every value they keep.
func pooledRequest(_ uint64, op byte) bool {
	return op == opPlaceCompute || op == opObservedReport
}

// placementOp reports whether op is a placement RPC — the ops whose
// dispatch the server bounds. opPlaceStats rides along: it touches the
// same service and is cheap, so bounding it costs nothing and keeps a
// stats stampede from bypassing the limiter.
func placementOp(op byte) bool {
	return op == opPlaceCompute || op == opPlaceStats
}

var errUnknownHandle = errors.New("orwlnet: unknown handle")

// handle dispatches one request. The bool reports whether the payload
// was drawn from the encode pool and must be recycled after the write;
// the placement responses are, since they carry the big assignment and
// stats payloads the pool exists for.
func (s *Server) handle(st *connState, m message) ([]byte, bool, error) {
	if m.op == opHello {
		payload, err := s.handleHello(st, m.payload)
		return payload, false, err
	}
	if !st.hello.Load() {
		return nil, false, fmt.Errorf("orwlnet: %w: op %d before the opHello handshake", ErrVersion, m.op)
	}
	switch m.op {
	case opPlaceCompute:
		svc, err := s.placementFor()
		if err != nil {
			return nil, false, err
		}
		req, err := decodePlaceRequest(m.payload, s.matrices)
		if err != nil {
			return nil, false, err
		}
		resp, err := svc.Place(s.ctx, req)
		if err != nil {
			return nil, false, err
		}
		return encodePlaceResponse(getPayloadBuf(), resp), true, nil
	case opPlaceStats:
		stats, err := s.ServiceStats(s.ctx)
		if err != nil {
			return nil, false, err
		}
		return encodeServiceStats(getPayloadBuf(), stats), true, nil
	case opFleetLease:
		ctrl, err := s.fleetFor()
		if err != nil {
			return nil, false, err
		}
		machine, peer, base, count, token, err := decodeFleetLeaseRequest(m.payload)
		if err != nil {
			return nil, false, err
		}
		lease, err := ctrl.RegisterToken(machine, peer, base, count, token)
		if err != nil {
			return nil, false, err
		}
		return encodeFleetLeaseResponse(nil, lease.ID), false, nil
	case opObservedReport:
		ctrl, err := s.fleetFor()
		if err != nil {
			return nil, false, err
		}
		if cap := s.reportCaps.maxFrameBytes; cap > 0 && len(m.payload) > cap {
			return nil, false, fmt.Errorf("orwlnet: observed report of %d bytes exceeds the %d-byte frame cap", len(m.payload), cap)
		}
		if s.reportCaps.bytesPerSec > 0 && !st.takeReportBudget(len(m.payload), s.reportCaps) {
			return nil, false, fmt.Errorf("orwlnet: %w: connection exceeded its observed-report byte budget — back off and retry", ctrlplane.ErrRateLimited)
		}
		return nil, false, mergeObservedReport(ctrl.Collector(), m.payload)
	case opWatchRemaps:
		return s.handleWatch(st, m)
	default:
		payload, err := s.handleLocation(st, m)
		return payload, false, err
	}
}

// handleHello answers the version handshake: protoVersion when the
// client's [min, max] range holds it, ErrVersion otherwise. A
// successful hello opens the connection to every other op.
func (s *Server) handleHello(st *connState, payload []byte) ([]byte, error) {
	if len(payload) < 2 {
		return nil, fmt.Errorf("orwlnet: malformed hello")
	}
	if min, max := payload[0], payload[1]; min > protoVersion || max < protoVersion {
		return nil, fmt.Errorf("orwlnet: %w: client speaks %d-%d, server speaks %d", ErrVersion, min, max, protoVersion)
	}
	st.hello.Store(true)
	return []byte{protoVersion}, nil
}

// handleLocation serves the location ops and the topology fetch — the
// payloads small or caller-owned enough that pooling buys nothing.
func (s *Server) handleLocation(st *connState, m message) ([]byte, error) {
	switch m.op {
	case opScale:
		name, rest, err := codec.GetString(m.payload)
		if err != nil {
			return nil, err
		}
		size, _, err := codec.GetUint64(rest)
		if err != nil {
			return nil, err
		}
		loc, err := s.location(name)
		if err != nil {
			return nil, err
		}
		loc.Scale(int(size))
		return nil, nil
	case opSize:
		name, _, err := codec.GetString(m.payload)
		if err != nil {
			return nil, err
		}
		loc, err := s.location(name)
		if err != nil {
			return nil, err
		}
		return codec.PutUint64(nil, uint64(loc.Size())), nil
	case opInsert:
		name, rest, err := codec.GetString(m.payload)
		if err != nil {
			return nil, err
		}
		if len(rest) < 1 {
			return nil, fmt.Errorf("orwlnet: missing mode")
		}
		mode := orwl.Mode(rest[0])
		if mode != orwl.Read && mode != orwl.Write {
			return nil, fmt.Errorf("orwlnet: bad mode %d", rest[0])
		}
		loc, err := s.location(name)
		if err != nil {
			return nil, err
		}
		id := s.handleID.Add(1)
		st.mu.Lock()
		st.reqs[id] = loc.NewRequest(mode)
		st.mu.Unlock()
		return codec.PutUint64(nil, id), nil
	case opAwait:
		req, err := s.request(st, m.payload)
		if err != nil {
			return nil, err
		}
		req.Await()
		return nil, nil
	case opRead:
		req, err := s.request(st, m.payload)
		if err != nil {
			return nil, err
		}
		if !req.TryAwait() {
			return nil, fmt.Errorf("orwlnet: read without grant")
		}
		buf := req.Buffer()
		out := make([]byte, len(buf))
		copy(out, buf)
		return out, nil
	case opWrite:
		id, rest, err := codec.GetUint64(m.payload)
		if err != nil {
			return nil, err
		}
		req, err := s.requestByID(st, id)
		if err != nil {
			return nil, err
		}
		if !req.TryAwait() {
			return nil, fmt.Errorf("orwlnet: write without grant")
		}
		if req.Mode() != orwl.Write {
			return nil, fmt.Errorf("orwlnet: write on read handle")
		}
		buf := req.Buffer()
		if len(rest) > len(buf) {
			return nil, fmt.Errorf("orwlnet: write of %d bytes into %d-byte location", len(rest), len(buf))
		}
		copy(buf, rest)
		return nil, nil
	case opRelease:
		id, _, err := codec.GetUint64(m.payload)
		if err != nil {
			return nil, err
		}
		req, err := s.requestByID(st, id)
		if err != nil {
			return nil, err
		}
		if err := req.Release(); err != nil {
			return nil, err
		}
		st.mu.Lock()
		delete(st.reqs, id)
		st.mu.Unlock()
		return nil, nil
	case opReleaseReinsert:
		req, err := s.request(st, m.payload)
		if err != nil {
			return nil, err
		}
		return nil, req.ReleaseAndReinsert()
	case opTopology:
		svc, err := s.placementFor()
		if err != nil {
			return nil, err
		}
		top, err := svc.Topology(s.ctx)
		if err != nil {
			return nil, err
		}
		return top.MarshalJSON()
	default:
		return nil, fmt.Errorf("orwlnet: %w %d", errUnknownOp, m.op)
	}
}

// ServiceStats snapshots the full service description the daemon
// serves to opPlaceStats callers (and to the -stats-addr HTTP
// endpoint): the placement service's own counters plus the transport
// (NetStats) and control-plane (FleetStats) tails only the daemon can
// see. It requires a placement service.
func (s *Server) ServiceStats(ctx context.Context) (placement.ServiceStats, error) {
	if s.place == nil {
		return placement.ServiceStats{}, fmt.Errorf("orwlnet: server exports no placement service")
	}
	stats, err := s.place.Stats(ctx)
	if err != nil {
		return placement.ServiceStats{}, err
	}
	// The serving daemon owns the transport, so it (not the placement
	// service) fills in the NetStats tail.
	stats.Net = placement.NetStats{
		InFlight:           uint64(s.placeInFlight.Load()),
		PeakInFlight:       s.peakInFlight.Load(),
		BytesIn:            s.bytesIn.Load(),
		BytesOut:           s.bytesOut.Load(),
		SparseMatrices:     s.matrices.sparseSeen.Load(),
		FingerprintHits:    s.matrices.fpHits.Load(),
		FingerprintMisses:  s.matrices.fpMisses.Load(),
		MatrixCacheEntries: s.matrices.len(),
	}
	if s.ctrl != nil {
		// Same split as NetStats: the daemon hosts the control plane, so
		// it fills the fleet tail the placement service cannot see — and
		// the push-encoding counters, which live on the server because
		// the delta-vs-full choice is made at the wire.
		stats.Fleet = s.ctrl.Stats()
		stats.Fleet.DeltaPushes = s.deltaPushes.Load()
		stats.Fleet.FullPushes = s.fullPushes.Load()
	}
	return stats, nil
}

// handleWatch turns the connection into a remap subscription: the
// response to the opWatchRemaps call is the catch-up ack (the latest
// adopted remap newer than the client's since-epoch, or an empty
// epoch-0 frame), and a pusher goroutine then writes every later
// adoption as an unsolicited frame reusing the subscription's call id.
// The pusher holds an inflight count for its whole life so the idle
// reaper never closes a byte-silent watch connection.
func (s *Server) handleWatch(st *connState, m message) ([]byte, bool, error) {
	ctrl, err := s.fleetFor()
	if err != nil {
		return nil, false, err
	}
	machine, since, err := decodeWatchRequest(m.payload)
	if err != nil {
		return nil, false, err
	}
	subID, events, catchUp, err := ctrl.Subscribe(machine, since)
	if err != nil {
		return nil, false, err
	}
	payload := encodeRemapFrame(getPayloadBuf(), catchUp, false)
	// The catch-up ack is the subscriber's baseline: it now holds
	// exactly catchUp.Epoch (or its own since-epoch when nothing newer
	// existed), which is what the pusher's delta eligibility builds on.
	lastDelivered := since
	if catchUp != nil {
		lastDelivered = catchUp.Epoch
		s.fullPushes.Add(1) // counted before serveConn writes it
	}
	st.mu.Lock()
	if st.subs == nil {
		st.subs = make(map[uint64]struct{})
	}
	st.subs[subID] = struct{}{}
	st.mu.Unlock()
	st.inflight.Add(1)
	s.wg.Add(1)
	go s.watchPusher(st, m.callID, subID, lastDelivered, events)
	return payload, true, nil
}

// watchPusher forwards adopted remaps to one subscriber connection. It
// exits when the subscription's event channel closes — on connection
// death (serveConn's deferred unsubscribe) or an Unsubscribe after a
// failed write.
//
// lastDelivered tracks the newest epoch the subscriber is known to
// hold (seeded by the catch-up ack) — the state behind the delta rule:
// a subscriber exactly one epoch behind an event that knows its moved
// tasks and binds gets the delta; any gap (a coalesced latest-wins
// push, a missed write) gets the complete frame, so the subscriber can
// always reconstruct.
//
// A frame is counted before it is written and uncounted if the write
// fails: a client that has applied a frame reads stats that include it.
func (s *Server) watchPusher(st *connState, callID, subID, lastDelivered uint64, events <-chan ctrlplane.Remap) {
	defer s.wg.Done()
	defer st.inflight.Add(-1)
	for ev := range events {
		payload := encodeRemapFrame(getPayloadBuf(), &ev, ev.Epoch == lastDelivered+1)
		pushes := &s.fullPushes
		if payload[1] == remapKindDelta { // the kind byte, after the version
			pushes = &s.deltaPushes
		}
		pushes.Add(1)
		st.writeMu.Lock()
		werr := writeMessage(st.conn, message{callID: callID, op: statusOK, payload: payload})
		st.writeMu.Unlock()
		s.bytesOut.Add(13 + uint64(len(payload)))
		putPayloadBuf(payload)
		if werr != nil {
			// Dead subscriber: uncount the frame, tear the connection
			// down and stop the flow at the source; the range drains the
			// closing channel.
			pushes.Add(^uint64(0))
			st.conn.Close()
			s.ctrl.Unsubscribe(subID)
			continue
		}
		lastDelivered = ev.Epoch
	}
}

// fleetFor gates the fleet control-plane ops on the daemon hosting a
// controller.
func (s *Server) fleetFor() (*ctrlplane.Controller, error) {
	if s.ctrl == nil {
		return nil, fmt.Errorf("orwlnet: server hosts no fleet control plane")
	}
	return s.ctrl, nil
}

// placementFor gates the placement RPCs on the server exporting a
// service.
func (s *Server) placementFor() (placement.Service, error) {
	if s.place == nil {
		return nil, fmt.Errorf("orwlnet: server exports no placement service")
	}
	return s.place, nil
}

func (s *Server) location(name string) (*orwl.Location, error) {
	loc, ok := s.locs[name]
	if !ok {
		return nil, fmt.Errorf("orwlnet: unknown location %q", name)
	}
	return loc, nil
}

func (s *Server) request(st *connState, payload []byte) (*orwl.RawRequest, error) {
	id, _, err := codec.GetUint64(payload)
	if err != nil {
		return nil, err
	}
	return s.requestByID(st, id)
}

func (s *Server) requestByID(st *connState, id uint64) (*orwl.RawRequest, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	req, ok := st.reqs[id]
	if !ok {
		return nil, errUnknownHandle
	}
	return req, nil
}
