package orwl

import "fmt"

// Handle links a task to a location with a fixed access mode
// (orwl_handle). A plain handle carries a single request: once acquired
// and released it is spent. Use Handle2 for iterative access.
type Handle struct {
	loc       *Location
	mode      Mode
	iterative bool
	cur       *request
	acquired  bool
	inserted  bool
}

// NewHandle returns an unbound single-shot handle
// (ORWL_HANDLE_INITIALIZER).
func NewHandle() *Handle { return &Handle{} }

// NewHandle2 returns an unbound iterative handle: on every release it
// re-queues a request for the next iteration (orwl_handle2).
func NewHandle2() *Handle { return &Handle{iterative: true} }

// Location returns the location the handle is bound to, or nil.
func (h *Handle) Location() *Location { return h.loc }

// Mode returns the access mode of the handle.
func (h *Handle) Mode() Mode { return h.mode }

// bind attaches the handle to a location; the actual FIFO insertion is
// deferred to Program.schedule so that initial requests are ordered by
// priority across all tasks.
func (h *Handle) bind(loc *Location, mode Mode) error {
	if h.inserted {
		return fmt.Errorf("orwl: handle already bound to %q", h.loc.name)
	}
	h.loc = loc
	h.mode = mode
	h.inserted = true
	return nil
}

// Acquire blocks until the handle's pending request is granted. It is
// an error to acquire an unbound or spent handle, or to acquire twice
// without releasing.
func (h *Handle) Acquire() error {
	if h.cur == nil {
		return fmt.Errorf("orwl: acquire on unbound or spent handle")
	}
	if h.acquired {
		return fmt.Errorf("orwl: double acquire on location %q", h.loc.name)
	}
	<-h.cur.ready
	h.acquired = true
	return nil
}

// Release ends the critical section. Iterative handles atomically queue
// their next-iteration request; single-shot handles become spent.
func (h *Handle) Release() error {
	if !h.acquired || h.cur == nil {
		return fmt.Errorf("orwl: release without acquire")
	}
	h.acquired = false
	if h.iterative {
		next, err := h.loc.releaseAndReinsert(h.cur)
		if err != nil {
			return err
		}
		h.cur = next
		return nil
	}
	err := h.loc.release(h.cur)
	h.cur = nil
	return err
}

// WriteMap returns the location's buffer for writing
// (orwl_write_map). The handle must hold a granted write request.
func (h *Handle) WriteMap() ([]byte, error) {
	if !h.acquired {
		return nil, fmt.Errorf("orwl: write map without grant")
	}
	if h.mode != Write {
		return nil, fmt.Errorf("orwl: write map on read handle for %q", h.loc.name)
	}
	return h.loc.buffer(), nil
}

// ReadMap returns the location's buffer for reading (orwl_read_map).
// The handle must hold a grant; callers must not modify the returned
// slice.
func (h *Handle) ReadMap() ([]byte, error) {
	if !h.acquired {
		return nil, fmt.Errorf("orwl: read map without grant")
	}
	return h.loc.buffer(), nil
}

// Section runs fn inside the handle's critical section (ORWL_SECTION /
// ORWL_SECTION2): it acquires, invokes fn with the mapped buffer, and
// releases even when fn returns an error.
func (h *Handle) Section(fn func(buf []byte) error) error {
	if err := h.Acquire(); err != nil {
		return err
	}
	var buf []byte
	var err error
	if h.mode == Write {
		buf, err = h.WriteMap()
	} else {
		buf, err = h.ReadMap()
	}
	if err != nil {
		_ = h.Release()
		return err
	}
	ferr := fn(buf)
	rerr := h.Release()
	if ferr != nil {
		return ferr
	}
	return rerr
}
