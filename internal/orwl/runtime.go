package orwl

import (
	"fmt"
	"sort"
	"sync"

	"orwlplace/internal/bind"
)

// LocationID names a location in a task's namespace, as
// ORWL_LOCATION(task, name) does in the C library.
type LocationID struct {
	Task int
	Name string
}

// Loc is shorthand for LocationID{task, name}.
func Loc(task int, name string) LocationID { return LocationID{Task: task, Name: name} }

// insertRec records one handle insertion before scheduling, so the
// runtime can order initial requests by priority and derive the
// dependency graph.
type insertRec struct {
	task     int
	handle   *Handle
	loc      *Location
	mode     Mode
	priority int
	seq      int
}

// Program is the ORWL runtime instance for one application run: a fixed
// set of tasks, their per-task locations, and the schedule barrier
// where the affinity module plugs in.
type Program struct {
	numTasks int

	mu      sync.Mutex
	locs    map[LocationID]*Location
	inserts []insertRec
	seq     int

	scheduled   bool
	arrivals    int
	schedDone   chan struct{}
	scheduleErr error

	// traffic records the observed inter-task communication (see
	// traffic.go); every location of the program shares it.
	traffic *Traffic

	// scheduleHook runs exactly once, when the last task reaches
	// Schedule and after all initial requests are ordered — the point
	// where the paper's affinity module computes and applies the thread
	// mapping.
	scheduleHook func(*Program)

	// binding is populated by the affinity module (task -> logical PU);
	// -1 or missing means unbound.
	binding map[int]int
}

// NewProgram creates a runtime for numTasks tasks, declaring the given
// location names in every task's namespace
// (ORWL_LOCATIONS_PER_TASK).
func NewProgram(numTasks int, locNames ...string) (*Program, error) {
	if numTasks <= 0 {
		return nil, fmt.Errorf("orwl: program needs at least one task, got %d", numTasks)
	}
	p := &Program{
		numTasks:  numTasks,
		locs:      make(map[LocationID]*Location),
		schedDone: make(chan struct{}),
		binding:   make(map[int]int),
		traffic:   newTraffic(numTasks),
	}
	for t := 0; t < numTasks; t++ {
		for _, name := range locNames {
			id := LocationID{Task: t, Name: name}
			p.locs[id] = newLocation(fmt.Sprintf("%d/%s", t, name), p.traffic)
		}
	}
	return p, nil
}

// MustProgram is NewProgram panicking on error, for tests and examples.
func MustProgram(numTasks int, locNames ...string) *Program {
	p, err := NewProgram(numTasks, locNames...)
	if err != nil {
		panic(err)
	}
	return p
}

// NumTasks returns the task count.
func (p *Program) NumTasks() int { return p.numTasks }

// Location resolves a location id, or nil if it does not exist.
func (p *Program) Location(id LocationID) *Location {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.locs[id]
}

// AddLocation declares an extra location outside the regular per-task
// grid, for DFG-style programs.
func (p *Program) AddLocation(id LocationID) (*Location, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.locs[id]; dup {
		return nil, fmt.Errorf("orwl: duplicate location %v", id)
	}
	if p.scheduled {
		return nil, fmt.Errorf("orwl: cannot add location %v after schedule", id)
	}
	l := newLocation(fmt.Sprintf("%d/%s", id.Task, id.Name), p.traffic)
	p.locs[id] = l
	return l, nil
}

// SetScheduleHook installs the function invoked once at the schedule
// barrier; the affinity module uses it to compute and set bindings.
func (p *Program) SetScheduleHook(hook func(*Program)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.scheduleHook = hook
}

// SetBinding records the placement of a task's compute thread (PU
// index; logical and OS indexes coincide on the synthetic machines).
// The binding parameterises the performance simulator and the
// reporting tools, and a task may apply it to its own OS thread with
// TaskContext.BindSelf.
func (p *Program) SetBinding(task, pu int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.binding[task] = pu
}

// Binding returns the compute binding (task -> PU), or nil when no
// affinity was applied.
func (p *Program) Binding() map[int]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.binding) == 0 {
		return nil
	}
	out := make(map[int]int, len(p.binding))
	for k, v := range p.binding {
		out[k] = v
	}
	return out
}

// recordInsert registers a handle insertion before the schedule point.
func (p *Program) recordInsert(task int, h *Handle, loc *Location, mode Mode, priority int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.scheduled {
		return fmt.Errorf("orwl: handle insertion after schedule")
	}
	if err := h.bind(loc, mode); err != nil {
		return err
	}
	p.inserts = append(p.inserts, insertRec{
		task: task, handle: h, loc: loc, mode: mode,
		priority: priority, seq: p.seq,
	})
	p.seq++
	return nil
}

// scheduleArrive implements the orwl_schedule barrier: the last task to
// arrive performs the global ordered insertion of all initial requests,
// runs the schedule hook, and releases everyone.
func (p *Program) scheduleArrive() error {
	p.mu.Lock()
	p.arrivals++
	if p.arrivals > p.numTasks {
		p.mu.Unlock()
		return fmt.Errorf("orwl: more schedule arrivals than tasks")
	}
	if p.arrivals < p.numTasks {
		p.mu.Unlock()
		<-p.schedDone
		p.mu.Lock()
		err := p.scheduleErr
		p.mu.Unlock()
		return err
	}
	// Last arrival: order all initial requests by (priority, seq) per
	// location and insert them into the FIFOs.
	recs := append([]insertRec(nil), p.inserts...)
	sort.SliceStable(recs, func(a, b int) bool {
		if recs[a].priority != recs[b].priority {
			return recs[a].priority < recs[b].priority
		}
		return recs[a].seq < recs[b].seq
	})
	for _, r := range recs {
		r.handle.cur = r.loc.insertFor(r.task, r.mode)
	}
	p.scheduled = true
	hook := p.scheduleHook
	p.mu.Unlock()

	if hook != nil {
		hook(p)
	}
	close(p.schedDone)
	return nil
}

// InsertCount reports the number of handle insertions recorded so far
// — the dependency information the declared matrix derives from.
// Placement front ends use it to reject extraction from a program
// that has announced no handles yet.
func (p *Program) InsertCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.inserts)
}

// Scheduled reports whether the schedule barrier has completed.
func (p *Program) Scheduled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.scheduled
}

// TaskContext is the view a task body has of the runtime.
type TaskContext struct {
	prog *Program
	tid  int
}

// TID returns the task id (orwl_mytid).
func (c *TaskContext) TID() int { return c.tid }

// NumTasks returns the number of tasks in the program.
func (c *TaskContext) NumTasks() int { return c.prog.numTasks }

// Program returns the enclosing program.
func (c *TaskContext) Program() *Program { return c.prog }

// Location resolves a location id.
func (c *TaskContext) Location(id LocationID) *Location { return c.prog.Location(id) }

// Scale resizes one of the task's own locations (orwl_scale).
func (c *TaskContext) Scale(name string, size int) error {
	loc := c.prog.Location(Loc(c.tid, name))
	if loc == nil {
		return fmt.Errorf("orwl: task %d has no location %q", c.tid, name)
	}
	loc.Scale(size)
	return nil
}

// WriteInsert binds h to the location with write access at the given
// FIFO priority (orwl_write_insert).
func (c *TaskContext) WriteInsert(h *Handle, id LocationID, priority int) error {
	loc := c.prog.Location(id)
	if loc == nil {
		return fmt.Errorf("orwl: unknown location %v", id)
	}
	return c.prog.recordInsert(c.tid, h, loc, Write, priority)
}

// ReadInsert binds h to the location with read access at the given FIFO
// priority (orwl_read_insert).
func (c *TaskContext) ReadInsert(h *Handle, id LocationID, priority int) error {
	loc := c.prog.Location(id)
	if loc == nil {
		return fmt.Errorf("orwl: unknown location %v", id)
	}
	return c.prog.recordInsert(c.tid, h, loc, Read, priority)
}

// Schedule synchronises with all other tasks and activates the ordered
// initial requests (orwl_schedule). Every task must call it exactly
// once, after performing all its insertions.
func (c *TaskContext) Schedule() error { return c.prog.scheduleArrive() }

// Request queues a steady-state access on a location for this task —
// the post-schedule insertion path dynamic programs use when their
// communication pattern drifts away from the declared handle graph.
// Unlike handles, these requests are attributed but unordered: they
// land at the FIFO tail in call order. Releases feed the program's
// observed-traffic counters.
func (c *TaskContext) Request(id LocationID, mode Mode) (*RawRequest, error) {
	loc := c.prog.Location(id)
	if loc == nil {
		return nil, fmt.Errorf("orwl: unknown location %v", id)
	}
	return loc.NewRequestFor(c.tid, mode), nil
}

// BindSelf applies the affinity module's placement to the calling task
// goroutine: it locks the goroutine to its OS thread and restricts the
// thread to the bound PU (hwloc's thread binding, best effort — a
// no-op when the task is unbound or the platform cannot pin threads).
// The returned function releases the binding; callers typically defer
// it right after Schedule.
func (c *TaskContext) BindSelf() (release func(), err error) {
	c.prog.mu.Lock()
	pu, ok := c.prog.binding[c.tid]
	c.prog.mu.Unlock()
	if !ok || pu < 0 {
		return func() {}, nil
	}
	b, err := bind.BindCurrent(pu)
	if err != nil {
		return func() {}, err
	}
	return func() { _ = b.Unbind() }, nil
}

// Run executes body as the program's tasks, one goroutine per task, and
// waits for all of them. The first non-nil error is returned.
func (p *Program) Run(body func(*TaskContext) error) error {
	var wg sync.WaitGroup
	errs := make([]error, p.numTasks)
	for t := 0; t < p.numTasks; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			errs[tid] = body(&TaskContext{prog: p, tid: tid})
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunTasks executes a distinct body per task id, for heterogeneous
// programs such as the video-tracking DFG.
func (p *Program) RunTasks(bodies []func(*TaskContext) error) error {
	if len(bodies) != p.numTasks {
		return fmt.Errorf("orwl: %d task bodies for %d tasks", len(bodies), p.numTasks)
	}
	return p.Run(func(ctx *TaskContext) error { return bodies[ctx.tid](ctx) })
}

// ControlStats sums the control events (inserts, grants, releases) over
// all locations: a proxy for the control-thread traffic of the C
// runtime.
func (p *Program) ControlStats() (inserts, grants, releases uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, l := range p.locs {
		i, g, r := l.Stats()
		inserts += i
		grants += g
		releases += r
	}
	return
}
