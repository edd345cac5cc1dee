package orwlnet

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"orwlplace/internal/codec"
	"orwlplace/internal/orwl"
)

// Client is one connection to a location server. It is safe for
// concurrent use: calls are tagged and multiplexed, so a blocked
// Acquire does not stall other handles on the same connection. Frames
// are handed to a writer goroutine, so a caller never blocks on
// another caller's socket write — the transport pipelines as deep as
// the send queue.
type Client struct {
	conn net.Conn

	callID atomic.Uint64
	sendCh chan outFrame

	// Wire byte counters (frames in/out including headers), read by
	// WireStats for throughput accounting.
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64

	// wmu guards the write side: the writer goroutine holds it for a
	// queued burst, a caller finding the queue empty for its own frame.
	wmu   sync.Mutex
	bw    *bufio.Writer
	wdead bool

	mu      sync.Mutex
	pending map[uint64]pendingCall
	// streams are call ids turned into subscriptions (opWatchRemaps):
	// unlike pending slots they survive their first response frame, and
	// the server pushes unsolicited frames at them until the stream is
	// closed. Delivery is latest-wins: each frame is a full snapshot,
	// so a slow consumer loses history, never the newest state.
	streams map[uint64]chan message
	err     error
	done    chan struct{}
}

// pendingCall is a call awaiting its response. A pooled call's response
// body is a payloadPool buffer its caller recycles (callPooled).
type pendingCall struct {
	ch     chan message
	pooled bool
}

// replyPool recycles reply channels, each only once its one reply was
// received (the read loop then no longer reaches it).
var replyPool = sync.Pool{New: func() any { return make(chan message, 1) }}

// outFrame is one queued request frame. pooled marks a payload drawn
// from payloadPool: ownership transfers to the writer goroutine at
// enqueue, which recycles it after the bytes hit the wire — the caller
// must not touch it again, even if its context is canceled while the
// frame is still queued.
type outFrame struct {
	msg    message
	pooled bool
}

// sendQueueDepth bounds frames queued to the writer. Deep enough that
// a pipelining caller fleet never stalls on the queue itself, shallow
// enough to apply back-pressure when the socket is the bottleneck.
const sendQueueDepth = 256

// DialOption customises a Dial connection.
type DialOption func(*dialConfig)

// DialFunc opens the transport connection a Client runs over. The
// default is a plain TCP dial; tests inject fault-wrapped dialers
// (internal/faultnet) through WithDialFunc.
type DialFunc func(ctx context.Context, network, addr string) (net.Conn, error)

type dialConfig struct {
	poolSize int
	dial     DialFunc
}

// WithPoolSize sets how many connections DialPlacementService opens.
// The plain Dial single-connection client ignores it.
func WithPoolSize(n int) DialOption {
	return func(cfg *dialConfig) { cfg.poolSize = n }
}

// WithDialFunc replaces the transport dialer — the seam fault
// injection (internal/faultnet) and custom transports plug into. The
// function receives the network "tcp" and the dialed address.
func WithDialFunc(fn DialFunc) DialOption {
	return func(cfg *dialConfig) { cfg.dial = fn }
}

func applyDialOptions(opts []DialOption) dialConfig {
	cfg := dialConfig{poolSize: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.poolSize < 1 {
		cfg.poolSize = 1
	}
	return cfg
}

// Dial connects to a server with no deadline on the connect or the
// version handshake.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	return dialContext(context.Background(), addr, opts...)
}

// dialContext connects to a server, honouring the context's deadline
// and cancellation for both the TCP connect and the version handshake.
func dialContext(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	cfg := applyDialOptions(opts)
	dial := cfg.dial
	if dial == nil {
		var d net.Dialer
		dial = d.DialContext
	}
	conn, err := dial(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("orwlnet: dial: %w", err)
	}
	c := &Client{
		conn:    conn,
		sendCh:  make(chan outFrame, sendQueueDepth),
		pending: make(map[uint64]pendingCall),
		bw:      bufio.NewWriterSize(conn, 32<<10),
		streams: make(map[uint64]chan message),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	go c.writeLoop()
	if err := c.handshake(ctx); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// handshake offers [protoVersion, protoVersion] and requires the
// server to answer with it.
func (c *Client) handshake(ctx context.Context) error {
	resp, err := c.callCtx(ctx, opHello, []byte{protoVersion, protoVersion})
	if err != nil {
		return fmt.Errorf("orwlnet: handshake: %w", err)
	}
	if len(resp) != 1 || resp[0] != protoVersion {
		return fmt.Errorf("orwlnet: handshake: %w: server answered %v, want [%d]", ErrVersion, resp, protoVersion)
	}
	return nil
}

// WireStats returns the bytes this connection has read and written,
// frame headers included.
func (c *Client) WireStats() (bytesIn, bytesOut uint64) {
	return c.bytesIn.Load(), c.bytesOut.Load()
}

// Close terminates the connection; outstanding calls fail.
func (c *Client) Close() error { return c.conn.Close() }

// Dead reports whether the connection has failed (its read loop has
// exited): calls on it can only return the recorded error. Pool
// revival uses this to pick which slots to redial.
func (c *Client) Dead() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

func (c *Client) readLoop() {
	// Buffered reads: a pipelining server answers in bursts, and the
	// buffer turns per-frame header+body read pairs into one syscall
	// per burst.
	br := bufio.NewReaderSize(c.conn, 32<<10)
	pooledReply := func(id uint64, _ byte) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.pending[id].pooled
	}
	for {
		msg, err := readMessage(br, pooledReply)
		if err != nil {
			c.mu.Lock()
			c.err = fmt.Errorf("%w: %w", errConnLost, err)
			for id, p := range c.pending {
				close(p.ch)
				delete(c.pending, id)
			}
			// Closing a stream channel is how its watcher learns the
			// connection died (and should resubscribe elsewhere).
			for id, ch := range c.streams {
				close(ch)
				delete(c.streams, id)
			}
			c.mu.Unlock()
			close(c.done)
			return
		}
		c.bytesIn.Add(13 + uint64(len(msg.payload)))
		c.mu.Lock()
		ch := c.pending[msg.callID].ch
		if ch != nil {
			delete(c.pending, msg.callID)
		} else if sch := c.streams[msg.callID]; sch != nil {
			// Deliver under the lock (closeStream also closes under it):
			// latest-wins into the buffered channel, never blocking the
			// read loop on a slow watcher.
			select {
			case sch <- msg:
			default:
				select {
				case <-sch:
				default:
				}
				select {
				case sch <- msg:
				default:
				}
			}
		}
		c.mu.Unlock()
		if ch != nil {
			ch <- msg
		}
	}
}

// writeLoop writes queued frames: callers enqueue frames and return to
// waiting on their reply channel, so N callers pipeline N frames
// without serialising on each other's syscalls. After a write error it
// keeps draining the queue so enqueued pooled buffers are still
// recycled.
func (c *Client) writeLoop() {
	// Writes go through a buffer that is flushed only when the send
	// queue runs dry: a burst of pipelined frames crosses in one
	// syscall instead of one per frame.
	for {
		select {
		case f := <-c.sendCh:
			c.wmu.Lock()
			c.write(f)
			for len(c.sendCh) > 0 { // the one receiver: this cannot block
				c.write(<-c.sendCh)
			}
			c.wmu.Unlock()
		case <-c.done:
			// Connection dead and no more replies will come: discard
			// whatever is still queued, recycling its buffers. A frame
			// enqueued after this drain is dropped unrecycled — the pool
			// tolerates that, and its caller is already being failed via
			// the closed pending channels.
			for {
				select {
				case f := <-c.sendCh:
					if f.pooled {
						putPayloadBuf(f.msg.payload)
					}
				default:
					return
				}
			}
		}
	}
}

// write buffers one frame, recycling a pooled payload, and flushes once
// nothing more is queued; c.wmu held. A failed write closes the
// connection, and the read loop then fails every pending call.
func (c *Client) write(f outFrame) {
	if !c.wdead {
		err := writeMessage(c.bw, f.msg)
		if err == nil {
			c.bytesOut.Add(13 + uint64(len(f.msg.payload)))
			if len(c.sendCh) == 0 {
				err = c.bw.Flush()
			}
		}
		if err != nil {
			c.wdead = true
			c.conn.Close()
		}
	}
	if f.pooled {
		putPayloadBuf(f.msg.payload)
	}
}

// call performs one request/response round trip.
func (c *Client) call(op byte, payload []byte) ([]byte, error) {
	return c.callCtx(context.Background(), op, payload)
}

// callCtx is call honouring context cancellation: an abandoned call's
// response is discarded by the read loop (the reply channel is
// buffered) and its pending slot reclaimed here.
func (c *Client) callCtx(ctx context.Context, op byte, payload []byte) ([]byte, error) {
	return c.callPooled(ctx, op, payload, false)
}

// callPooled is callCtx for payloads drawn from payloadPool: the
// buffer's ownership transfers to the writer goroutine once the frame
// is enqueued (the writer recycles it after the write), and is
// recycled here when enqueueing fails. Either way the caller must not
// reuse the buffer after this call. A pooled call's response body is a
// payloadPool buffer too: the caller copies out of it and recycles it
// with putPayloadBuf.
func (c *Client) callPooled(ctx context.Context, op byte, payload []byte, pooled bool) ([]byte, error) {
	recycle := func() {
		if pooled {
			putPayloadBuf(payload)
		}
	}
	if err := ctx.Err(); err != nil {
		recycle()
		return nil, err
	}
	id := c.callID.Add(1)
	ch := replyPool.Get().(chan message)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		recycle()
		return nil, err
	}
	c.pending[id] = pendingCall{ch: ch, pooled: pooled}
	c.mu.Unlock()

	f := outFrame{msg: message{callID: id, op: op, payload: payload}, pooled: pooled}
	if ctx.Done() == nil && len(c.sendCh) == 0 && c.wmu.TryLock() {
		// Nothing queued and the writer idle: write inline instead of
		// paying a goroutine hand-off. A caller that can give up hands
		// the frame over instead, so a stalled write never outlives it.
		c.write(f)
		c.wmu.Unlock()
	} else {
		select {
		case c.sendCh <- f:
			// Ownership of the payload is the writer's now.
		case <-c.done:
			c.mu.Lock()
			err := c.err
			delete(c.pending, id)
			c.mu.Unlock()
			recycle()
			return nil, err
		case <-ctx.Done():
			c.mu.Lock()
			delete(c.pending, id)
			c.mu.Unlock()
			recycle()
			return nil, ctx.Err()
		}
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return nil, err
		}
		replyPool.Put(ch)
		if resp.op != statusOK {
			return nil, responseError(resp)
		}
		return resp.payload, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// openStream sends a request frame whose call id becomes a
// subscription: every response frame with that id — the ack and each
// later push — arrives on the returned channel until closeStream, or
// until the connection dies (the channel is then closed). The first
// message is the server's ack (a non-OK status if the subscription was
// refused); the caller decodes it like any other frame.
func (c *Client) openStream(ctx context.Context, op byte, payload []byte) (uint64, <-chan message, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	id := c.callID.Add(1)
	ch := make(chan message, 8)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, nil, err
	}
	c.streams[id] = ch
	c.mu.Unlock()

	select {
	case c.sendCh <- outFrame{msg: message{callID: id, op: op, payload: payload}}:
		return id, ch, nil
	case <-c.done:
		c.mu.Lock()
		err := c.err
		delete(c.streams, id)
		c.mu.Unlock()
		return 0, nil, err
	case <-ctx.Done():
		c.closeStream(id)
		return 0, nil, ctx.Err()
	}
}

// closeStream abandons a subscription client-side: later frames with
// its call id are dropped by the read loop. (The server learns when
// the connection closes; there is no unsubscribe frame — watch
// connections are dedicated or long-lived.)
func (c *Client) closeStream(id uint64) {
	c.mu.Lock()
	if ch, ok := c.streams[id]; ok {
		delete(c.streams, id)
		close(ch)
	}
	c.mu.Unlock()
}

// Scale resizes a remote location.
func (c *Client) Scale(location string, size int) error {
	if size < 0 {
		return fmt.Errorf("orwlnet: negative size %d", size)
	}
	if err := codec.CheckStrings(location); err != nil {
		return err
	}
	_, err := c.call(opScale, codec.PutUint64(codec.PutString(nil, location), uint64(size)))
	return err
}

// Size returns a remote location's buffer size.
func (c *Client) Size(location string) (int, error) {
	if err := codec.CheckStrings(location); err != nil {
		return 0, err
	}
	resp, err := c.call(opSize, codec.PutString(nil, location))
	if err != nil {
		return 0, err
	}
	v, _, err := codec.GetUint64(resp)
	return int(v), err
}

// RemoteHandle is the client-side face of a queued request on a remote
// location; it mirrors orwl.Handle's lifecycle.
type RemoteHandle struct {
	c        *Client
	id       uint64
	mode     orwl.Mode
	acquired bool
	spent    bool
}

// Insert queues a request on the remote location. Remote requests are
// FIFO-ordered by arrival (the steady-state ordering of the runtime;
// initial priority ordering happens inside the owning process).
func (c *Client) Insert(location string, mode orwl.Mode) (*RemoteHandle, error) {
	if err := codec.CheckStrings(location); err != nil {
		return nil, err
	}
	payload := append(codec.PutString(nil, location), byte(mode))
	resp, err := c.call(opInsert, payload)
	if err != nil {
		return nil, err
	}
	id, _, err := codec.GetUint64(resp)
	if err != nil {
		return nil, err
	}
	return &RemoteHandle{c: c, id: id, mode: mode}, nil
}

// Acquire blocks until the remote FIFO grants the request.
func (h *RemoteHandle) Acquire() error {
	if h.spent {
		return fmt.Errorf("orwlnet: acquire on spent handle")
	}
	if h.acquired {
		return fmt.Errorf("orwlnet: double acquire")
	}
	if _, err := h.c.call(opAwait, codec.PutUint64(nil, h.id)); err != nil {
		return err
	}
	h.acquired = true
	return nil
}

// Read fetches the location content; the handle must be acquired.
func (h *RemoteHandle) Read() ([]byte, error) {
	if !h.acquired {
		return nil, fmt.Errorf("orwlnet: read without grant")
	}
	return h.c.call(opRead, codec.PutUint64(nil, h.id))
}

// Write replaces the leading bytes of the location content; the handle
// must be an acquired write handle.
func (h *RemoteHandle) Write(data []byte) error {
	if !h.acquired {
		return fmt.Errorf("orwlnet: write without grant")
	}
	_, err := h.c.call(opWrite, append(codec.PutUint64(nil, h.id), data...))
	return err
}

// Release ends the critical section; the handle becomes spent.
func (h *RemoteHandle) Release() error {
	if !h.acquired {
		return fmt.Errorf("orwlnet: release without acquire")
	}
	if _, err := h.c.call(opRelease, codec.PutUint64(nil, h.id)); err != nil {
		return err
	}
	h.acquired = false
	h.spent = true
	return nil
}

// ReleaseReinsert atomically releases and queues the next iteration
// (the iterative orwl_handle2 step).
func (h *RemoteHandle) ReleaseReinsert() error {
	if !h.acquired {
		return fmt.Errorf("orwlnet: release without acquire")
	}
	if _, err := h.c.call(opReleaseReinsert, codec.PutUint64(nil, h.id)); err != nil {
		return err
	}
	h.acquired = false
	return nil
}

// Section runs fn under the grant and releases afterwards, re-queueing
// when iterative is true.
func (h *RemoteHandle) Section(iterative bool, fn func(h *RemoteHandle) error) error {
	if err := h.Acquire(); err != nil {
		return err
	}
	ferr := fn(h)
	var rerr error
	if iterative {
		rerr = h.ReleaseReinsert()
	} else {
		rerr = h.Release()
	}
	if ferr != nil {
		return ferr
	}
	return rerr
}
