// Package orwl implements the Ordered Read-Write Lock programming model
// (§III of the paper): shared resources are abstracted as locations,
// concurrent access is ordered by a FIFO of read/write requests, and
// applications are decomposed into tasks that interact only through the
// locations they share.
//
// The runtime mirrors the reference C library's primitives: Location
// (orwl_location), Handle (orwl_handle / orwl_handle2), Section
// (ORWL_SECTION / ORWL_SECTION2) and Program (orwl_init/orwl_schedule). When
// all tasks have announced their handles, Schedule orders the initial
// requests, which makes the full task–location graph — and hence the
// communication matrix — available to the affinity module without any
// user annotation.
package orwl

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Mode is the access mode of a request: concurrent Read or exclusive
// Write.
type Mode int

// Access modes.
const (
	Read Mode = iota
	Write
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Location is a shared resource guarded by an ordered read-write lock.
// Requests are queued FIFO; adjacent read requests share a grant (a
// reader group), a write request is granted exclusively.
type Location struct {
	name string

	mu    sync.Mutex
	data  []byte
	queue []*group

	// Statistics, maintained atomically: they stand in for the control
	// traffic the ORWL control threads handle in the C implementation.
	grants   atomic.Uint64
	inserts  atomic.Uint64
	releases atomic.Uint64

	// traffic is the program-wide observed-communication recorder
	// (nil for locations created outside a program, e.g. in low-level
	// tests). lastWriter is the task id of the most recent released
	// writer, or -1: a read release records lastWriter -> reader
	// traffic of the location's current size.
	traffic    *Traffic
	lastWriter atomic.Int64
}

// newLocation builds a location wired to the program's traffic
// recorder.
func newLocation(name string, traffic *Traffic) *Location {
	l := &Location{name: name, traffic: traffic}
	l.lastWriter.Store(-1)
	return l
}

// group is one FIFO entry: either a single writer or a set of readers
// sharing the grant.
type group struct {
	mode    Mode
	reqs    []*request
	pending int // requests not yet released
	granted bool
}

// request is one queued access by one handle.
type request struct {
	mode  Mode
	ready chan struct{}
	loc   *Location
	done  bool
	// task is the task the request acts for, or -1 when unattributed
	// (raw requests from remote peers). Attributed requests feed the
	// observed-traffic counters on release.
	task int
}

// Name returns the location name.
func (l *Location) Name() string { return l.name }

// Size returns the current buffer size in bytes.
func (l *Location) Size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.data)
}

// Scale resizes the location's buffer, preserving existing content up
// to the new size (orwl_scale).
func (l *Location) Scale(size int) {
	if size < 0 {
		size = 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if size <= cap(l.data) {
		l.data = l.data[:size]
		return
	}
	nd := make([]byte, size)
	copy(nd, l.data)
	l.data = nd
}

// Preset fills the location's buffer (resizing it) before any request
// is queued. It is the initialisation path for locations whose first
// FIFO entry is a read — e.g. the lag-1 border exchanges of iterative
// stencils, where the first reader must observe the initial data.
func (l *Location) Preset(data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.queue) != 0 {
		return fmt.Errorf("orwl: preset on location %q with queued requests", l.name)
	}
	l.data = append(l.data[:0], data...)
	return nil
}

// Stats reports the number of insert/grant/release control events the
// location has processed.
func (l *Location) Stats() (inserts, grants, releases uint64) {
	return l.inserts.Load(), l.grants.Load(), l.releases.Load()
}

// insertFor queues a request acting for a task (-1 when unattributed);
// callers wait on req.ready.
func (l *Location) insertFor(task int, mode Mode) *request {
	req := &request{mode: mode, ready: make(chan struct{}), loc: l, task: task}
	l.mu.Lock()
	l.enqueueLocked(req)
	l.mu.Unlock()
	l.inserts.Add(1)
	return req
}

// enqueueLocked appends the request, coalescing adjacent readers, and
// grants it immediately when it lands at the head.
func (l *Location) enqueueLocked(req *request) {
	if req.mode == Read && len(l.queue) > 0 {
		tail := l.queue[len(l.queue)-1]
		// Readers join the tail reader group. If that group is the
		// granted head the new reader is admitted immediately: no
		// writer is waiting behind it, so FIFO order is preserved.
		if tail.mode == Read {
			tail.reqs = append(tail.reqs, req)
			tail.pending++
			if tail.granted {
				l.grants.Add(1)
				close(req.ready)
			}
			return
		}
	}
	g := &group{mode: req.mode, reqs: []*request{req}, pending: 1}
	l.queue = append(l.queue, g)
	if len(l.queue) == 1 {
		l.grantLocked(g)
	}
}

func (l *Location) grantLocked(g *group) {
	g.granted = true
	for _, r := range g.reqs {
		l.grants.Add(1)
		close(r.ready)
	}
}

// observeReleaseLocked feeds the observed-traffic counters at the end
// of a critical section, the one point where a transfer demonstrably
// happened: a releasing writer becomes the location's last writer, a
// releasing reader has consumed the last writer's data, so the
// location's current size is recorded as lastWriter -> reader volume.
// Unattributed requests (task < 0: remote raw requests) and locations
// outside a program (nil recorder) record nothing, keeping the legacy
// paths at their old cost.
func (l *Location) observeReleaseLocked(req *request) {
	if req.task < 0 {
		return
	}
	if req.mode == Write {
		l.lastWriter.Store(int64(req.task))
		return
	}
	if w := l.lastWriter.Load(); w >= 0 && int(w) != req.task {
		l.traffic.Record(int(w), req.task, len(l.data))
	}
}

// release marks one request of the head group as done; when the whole
// group is done the next group is granted.
func (l *Location) release(req *request) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if req.done {
		return fmt.Errorf("orwl: double release on location %q", l.name)
	}
	if len(l.queue) == 0 || !contains(l.queue[0], req) {
		return fmt.Errorf("orwl: release of non-granted request on location %q", l.name)
	}
	l.observeReleaseLocked(req)
	req.done = true
	head := l.queue[0]
	head.pending--
	l.releases.Add(1)
	if head.pending == 0 {
		l.queue = l.queue[1:]
		if len(l.queue) > 0 {
			l.grantLocked(l.queue[0])
		}
	}
	return nil
}

// releaseAndReinsert atomically releases the request and queues a fresh
// request with the same mode at the FIFO tail. This is the iterative
// handle (orwl_handle2) step: before leaving the critical section the
// task requests the resource for its next iteration, which guarantees
// that every task gets exactly one turn per round.
func (l *Location) releaseAndReinsert(req *request) (*request, error) {
	next := &request{mode: req.mode, ready: make(chan struct{}), loc: l, task: req.task}
	l.mu.Lock()
	defer l.mu.Unlock()
	if req.done {
		return nil, fmt.Errorf("orwl: double release on location %q", l.name)
	}
	if len(l.queue) == 0 || !contains(l.queue[0], req) {
		return nil, fmt.Errorf("orwl: release of non-granted request on location %q", l.name)
	}
	l.observeReleaseLocked(req)
	// Insert the next-iteration request first so it lands behind every
	// request already queued, then release the current one.
	l.enqueueLocked(next)
	l.inserts.Add(1)
	req.done = true
	head := l.queue[0]
	head.pending--
	l.releases.Add(1)
	if head.pending == 0 {
		l.queue = l.queue[1:]
		if len(l.queue) > 0 {
			l.grantLocked(l.queue[0])
		}
	}
	return next, nil
}

// cancel withdraws a queued request: a granted one is released, an
// ungranted one is removed from its FIFO group, closing its ready
// channel so blocked Awaits return. This is the liveness path for
// dead remote clients (orwlnet): their queued requests must not stall
// the FIFO — or a draining server — forever. Cancelling an already
// released request is a no-op.
func (l *Location) cancel(req *request) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if req.done {
		return
	}
	// A granted request behaves like a release: the group may be
	// holding successors back.
	if len(l.queue) > 0 && l.queue[0].granted && contains(l.queue[0], req) {
		req.done = true
		head := l.queue[0]
		head.pending--
		l.releases.Add(1)
		if head.pending == 0 {
			l.queue = l.queue[1:]
			if len(l.queue) > 0 {
				l.grantLocked(l.queue[0])
			}
		}
		return
	}
	// Ungranted: drop it from its group, dropping the group when it
	// empties, and wake anything blocked on it.
	for gi, g := range l.queue {
		for ri, r := range g.reqs {
			if r != req {
				continue
			}
			req.done = true
			close(req.ready)
			g.reqs = append(g.reqs[:ri], g.reqs[ri+1:]...)
			g.pending--
			if g.pending == 0 {
				l.queue = append(l.queue[:gi], l.queue[gi+1:]...)
				if gi == 0 && len(l.queue) > 0 && !l.queue[0].granted {
					l.grantLocked(l.queue[0])
				}
			}
			return
		}
	}
}

func contains(g *group, req *request) bool {
	for _, r := range g.reqs {
		if r == req {
			return true
		}
	}
	return false
}

// buffer returns the raw storage; only valid while holding a grant.
func (l *Location) buffer() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.data
}

// RawRequest exposes one queued FIFO access for low-level integrations
// such as the network location service (orwlnet). Applications should
// use Handle, which adds state checking on top. RawRequest is safe for
// concurrent use: a connection reaper may Cancel it while a handler
// goroutine is blocked in Await or mid-ReleaseAndReinsert.
type RawRequest struct {
	loc *Location

	mu  sync.Mutex
	req *request
}

// NewRequest queues an unattributed request at the FIFO tail and
// returns it. Unlike Handle insertion, this path is not ordered by the
// schedule barrier: it is the steady-state insertion used by remote
// peers. Unattributed requests bypass the observed-traffic counters.
func (l *Location) NewRequest(mode Mode) *RawRequest {
	return l.NewRequestFor(-1, mode)
}

// NewRequestFor is NewRequest acting for a task: releases of the
// request feed the program's observed-traffic counters, so
// steady-state (post-schedule) accesses — the dynamic traffic a
// declared dependency graph cannot see — appear in ObservedMatrix.
func (l *Location) NewRequestFor(task int, mode Mode) *RawRequest {
	return &RawRequest{loc: l, req: l.insertFor(task, mode)}
}

// current reads the tracked request under the lock (ReleaseAndReinsert
// swaps it).
func (r *RawRequest) current() *request {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.req
}

// Mode returns the request's access mode.
func (r *RawRequest) Mode() Mode { return r.current().mode }

// Await blocks until the request is granted (or cancelled).
func (r *RawRequest) Await() { <-r.current().ready }

// TryAwait reports whether the request is granted, without blocking.
func (r *RawRequest) TryAwait() bool {
	select {
	case <-r.current().ready:
		return true
	default:
		return false
	}
}

// Buffer returns the location's storage; only valid between Await and
// Release.
func (r *RawRequest) Buffer() []byte { return r.loc.buffer() }

// Release ends the grant.
func (r *RawRequest) Release() error { return r.loc.release(r.current()) }

// ReleaseAndReinsert atomically releases the grant and queues the next
// iteration's request (the Handle2 step); the RawRequest then tracks
// the new request.
func (r *RawRequest) ReleaseAndReinsert() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	next, err := r.loc.releaseAndReinsert(r.req)
	if err != nil {
		return err
	}
	r.req = next
	return nil
}

// Cancel withdraws the request from the FIFO: granted requests are
// released, ungranted ones removed and their Awaits unblocked. It is
// idempotent and safe concurrently with the other methods — the path
// a server takes when the owning client connection dies.
func (r *RawRequest) Cancel() { r.loc.cancel(r.current()) }
