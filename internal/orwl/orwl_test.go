package orwl

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestModeString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Error("mode names wrong")
	}
	if Mode(7).String() == "" {
		t.Error("unknown mode should still stringify")
	}
}

func TestNewProgramValidation(t *testing.T) {
	if _, err := NewProgram(0); err == nil {
		t.Error("accepted zero tasks")
	}
	if _, err := NewProgram(-3, "x"); err == nil {
		t.Error("accepted negative tasks")
	}
	p, err := NewProgram(2, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumTasks() != 2 {
		t.Error("task count wrong")
	}
	for tid := 0; tid < 2; tid++ {
		for _, n := range []string{"a", "b"} {
			if p.Location(Loc(tid, n)) == nil {
				t.Errorf("missing location %d/%s", tid, n)
			}
		}
	}
	if p.Location(Loc(5, "a")) != nil {
		t.Error("resolved nonexistent location")
	}
}

func TestLocationScaleAndSize(t *testing.T) {
	p := MustProgram(1, "m")
	loc := p.Location(Loc(0, "m"))
	if loc.Size() != 0 {
		t.Error("fresh location should be empty")
	}
	loc.Scale(16)
	if loc.Size() != 16 {
		t.Errorf("size = %d", loc.Size())
	}
	buf := loc.buffer()
	buf[3] = 42
	loc.Scale(8) // shrink keeps prefix
	if loc.Size() != 8 || loc.buffer()[3] != 42 {
		t.Error("shrink lost data")
	}
	loc.Scale(32) // grow preserves prefix
	if loc.buffer()[3] != 42 {
		t.Error("grow lost data")
	}
	loc.Scale(-1)
	if loc.Size() != 0 {
		t.Error("negative scale should clamp to zero")
	}
	if loc.Name() != "0/m" {
		t.Errorf("name = %q", loc.Name())
	}
}

func TestAddLocation(t *testing.T) {
	p := MustProgram(1, "m")
	l, err := p.AddLocation(Loc(0, "extra"))
	if err != nil || l == nil {
		t.Fatalf("AddLocation: %v", err)
	}
	if _, err := p.AddLocation(Loc(0, "extra")); err == nil {
		t.Error("accepted duplicate location")
	}
	if _, err := p.AddLocation(Loc(0, "m")); err == nil {
		t.Error("accepted clash with grid location")
	}
}

// runPipeline runs the paper's Listing 1: a chain where each task reads
// its predecessor's location, and returns the final values.
func runPipeline(t *testing.T, n int) []float64 {
	t.Helper()
	p := MustProgram(n, "main_loc")
	vals := make([]float64, n)
	err := p.Run(func(ctx *TaskContext) error {
		if err := ctx.Scale("main_loc", 8); err != nil {
			return err
		}
		here := NewHandle()
		there := NewHandle()
		if err := ctx.WriteInsert(here, Loc(ctx.TID(), "main_loc"), ctx.TID()); err != nil {
			return err
		}
		if ctx.TID() > 0 {
			if err := ctx.ReadInsert(there, Loc(ctx.TID()-1, "main_loc"), ctx.TID()); err != nil {
				return err
			}
		}
		if err := ctx.Schedule(); err != nil {
			return err
		}
		return here.Section(func(wbuf []byte) error {
			val := float64(ctx.TID() + 1)
			if ctx.TID() > 0 {
				if err := there.Section(func(rbuf []byte) error {
					prev := float64frombits(rbuf)
					val = (prev + val) * 0.5
					return nil
				}); err != nil {
					return err
				}
			}
			float64tobits(wbuf, val)
			vals[ctx.TID()] = val
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func float64frombits(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
func float64tobits(b []byte, v float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
}

func TestListing1Pipeline(t *testing.T) {
	vals := runPipeline(t, 8)
	// Task 0 writes 1; task i computes (prev + i+1)/2.
	want := 1.0
	if vals[0] != want {
		t.Errorf("task 0 value = %g, want %g", vals[0], want)
	}
	for i := 1; i < len(vals); i++ {
		want = (want + float64(i+1)) * 0.5
		if vals[i] != want {
			t.Errorf("task %d value = %g, want %g", i, vals[i], want)
		}
	}
}

func TestPipelineManyTasks(t *testing.T) {
	vals := runPipeline(t, 64)
	if len(vals) != 64 {
		t.Fatal("wrong length")
	}
	// Values converge towards n; just check the recurrence held for a
	// couple of points.
	want := 1.0
	for i := 1; i < 64; i++ {
		want = (want + float64(i+1)) * 0.5
	}
	if vals[63] != want {
		t.Errorf("last value = %g, want %g", vals[63], want)
	}
}

func TestFIFOOrderingIsPriorityOrder(t *testing.T) {
	// Three tasks write to the same location with priorities 2,0,1:
	// grants must follow priority order regardless of goroutine timing.
	p := MustProgram(3, "shared")
	var order []int
	var mu sync.Mutex
	prio := []int{2, 0, 1}
	err := p.Run(func(ctx *TaskContext) error {
		h := NewHandle()
		if err := ctx.WriteInsert(h, Loc(0, "shared"), prio[ctx.TID()]); err != nil {
			return err
		}
		if err := ctx.Schedule(); err != nil {
			return err
		}
		return h.Section(func([]byte) error {
			mu.Lock()
			order = append(order, ctx.TID())
			mu.Unlock()
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 0} // priorities 0,1,2
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order = %v, want %v", order, want)
		}
	}
}

func TestReadersShareGrant(t *testing.T) {
	// One writer (priority 0) then 4 readers (priority 1): all readers
	// must hold the grant concurrently.
	p := MustProgram(5, "shared")
	var concurrent atomic.Int32
	var peak atomic.Int32
	err := p.Run(func(ctx *TaskContext) error {
		h := NewHandle()
		var err error
		if ctx.TID() == 0 {
			err = ctx.WriteInsert(h, Loc(0, "shared"), 0)
		} else {
			err = ctx.ReadInsert(h, Loc(0, "shared"), 1)
		}
		if err != nil {
			return err
		}
		if err := ctx.Schedule(); err != nil {
			return err
		}
		return h.Section(func([]byte) error {
			if ctx.TID() == 0 {
				return nil
			}
			n := concurrent.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond) // let the others arrive
			concurrent.Add(-1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() != 4 {
		t.Errorf("peak concurrent readers = %d, want 4", peak.Load())
	}
}

func TestWriterExcludesReaders(t *testing.T) {
	// Writer between two reader groups: no reader of the second group
	// may run while the writer holds the grant.
	p := MustProgram(3, "shared")
	var stage atomic.Int32
	err := p.Run(func(ctx *TaskContext) error {
		h := NewHandle()
		var err error
		switch ctx.TID() {
		case 0:
			err = ctx.ReadInsert(h, Loc(0, "shared"), 0)
		case 1:
			err = ctx.WriteInsert(h, Loc(0, "shared"), 1)
		case 2:
			err = ctx.ReadInsert(h, Loc(0, "shared"), 2)
		}
		if err != nil {
			return err
		}
		if err := ctx.Schedule(); err != nil {
			return err
		}
		return h.Section(func([]byte) error {
			got := stage.Add(1)
			if int32(ctx.TID())+1 != got {
				return fmt.Errorf("task %d ran at stage %d", ctx.TID(), got)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHandle2Iterative(t *testing.T) {
	// Two tasks alternate exclusive access to one location over many
	// iterations; the iterative handle must enforce strict alternation.
	const iters = 50
	p := MustProgram(2, "ping")
	var trace []int
	var mu sync.Mutex
	err := p.Run(func(ctx *TaskContext) error {
		h := NewHandle2()
		if err := ctx.WriteInsert(h, Loc(0, "ping"), ctx.TID()); err != nil {
			return err
		}
		if err := ctx.Schedule(); err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if err := h.Section(func([]byte) error {
				mu.Lock()
				trace = append(trace, ctx.TID())
				mu.Unlock()
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2*iters {
		t.Fatalf("trace length = %d", len(trace))
	}
	for i, tid := range trace {
		if tid != i%2 {
			t.Fatalf("iteration %d ran task %d, want strict alternation (trace %v...)",
				i, tid, trace[:min(len(trace), 12)])
		}
	}
}

func TestHandleErrors(t *testing.T) {
	p := MustProgram(1, "m")
	h := NewHandle()
	if err := h.Acquire(); err == nil {
		t.Error("acquire on unbound handle should fail")
	}
	if err := h.Release(); err == nil {
		t.Error("release without acquire should fail")
	}
	if _, err := h.WriteMap(); err == nil {
		t.Error("write map without grant should fail")
	}
	if _, err := h.ReadMap(); err == nil {
		t.Error("read map without grant should fail")
	}
	err := p.Run(func(ctx *TaskContext) error {
		if err := ctx.WriteInsert(h, Loc(0, "m"), 0); err != nil {
			return err
		}
		h2 := NewHandle()
		if err := ctx.WriteInsert(h2, Loc(0, "m"), 1); err != nil {
			return err
		}
		// Rebinding a bound handle fails.
		if err := ctx.ReadInsert(h, Loc(0, "m"), 2); err == nil {
			return fmt.Errorf("rebind accepted")
		}
		if err := ctx.Schedule(); err != nil {
			return err
		}
		if err := h.Acquire(); err != nil {
			return err
		}
		if err := h.Acquire(); err == nil {
			return fmt.Errorf("double acquire accepted")
		}
		// Read map works on a write handle's grant; write map on a read
		// handle must fail (checked via h3 below).
		if _, err := h.WriteMap(); err != nil {
			return err
		}
		if err := h.Release(); err != nil {
			return err
		}
		if err := h.Release(); err == nil {
			return fmt.Errorf("double release accepted")
		}
		if err := h.Acquire(); err == nil {
			return fmt.Errorf("acquire on spent handle accepted")
		}
		return h2.Section(func([]byte) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteMapOnReadHandleFails(t *testing.T) {
	p := MustProgram(1, "m")
	err := p.Run(func(ctx *TaskContext) error {
		h := NewHandle()
		if err := ctx.ReadInsert(h, Loc(0, "m"), 0); err != nil {
			return err
		}
		if err := ctx.Schedule(); err != nil {
			return err
		}
		if err := h.Acquire(); err != nil {
			return err
		}
		if _, err := h.WriteMap(); err == nil {
			return fmt.Errorf("write map on read handle accepted")
		}
		if _, err := h.ReadMap(); err != nil {
			return err
		}
		return h.Release()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScheduleErrors(t *testing.T) {
	p := MustProgram(1, "m")
	if err := p.Run(func(ctx *TaskContext) error { return ctx.Schedule() }); err != nil {
		t.Fatal(err)
	}
	// A second wave of arrivals must fail.
	ctx := &TaskContext{prog: p, tid: 0}
	if err := ctx.Schedule(); err == nil {
		t.Error("extra schedule arrival accepted")
	}
	// Insertion after schedule must fail.
	h := NewHandle()
	if err := ctx.WriteInsert(h, Loc(0, "m"), 0); err == nil {
		t.Error("insert after schedule accepted")
	}
	// Unknown locations are rejected.
	p2 := MustProgram(1, "m")
	err := p2.Run(func(c *TaskContext) error {
		if err := c.WriteInsert(NewHandle(), Loc(9, "m"), 0); err == nil {
			return fmt.Errorf("unknown location accepted")
		}
		if err := c.ReadInsert(NewHandle(), Loc(0, "nope"), 0); err == nil {
			return fmt.Errorf("unknown name accepted")
		}
		if err := c.Scale("nope", 4); err == nil {
			return fmt.Errorf("scale of unknown location accepted")
		}
		return c.Schedule()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDependencyMatrixPipeline(t *testing.T) {
	p := MustProgram(4, "main_loc")
	err := p.Run(func(ctx *TaskContext) error {
		if err := ctx.Scale("main_loc", 100); err != nil {
			return err
		}
		here := NewHandle()
		if err := ctx.WriteInsert(here, Loc(ctx.TID(), "main_loc"), ctx.TID()); err != nil {
			return err
		}
		if ctx.TID() > 0 {
			there := NewHandle()
			if err := ctx.ReadInsert(there, Loc(ctx.TID()-1, "main_loc"), ctx.TID()); err != nil {
				return err
			}
		}
		return ctx.Schedule()
	})
	if err != nil {
		t.Fatal(err)
	}
	m := p.DependencyMatrix()
	if m.Order() != 4 {
		t.Fatalf("order = %d", m.Order())
	}
	for i := 0; i < 3; i++ {
		if m.At(i, i+1) != 100 {
			t.Errorf("volume %d->%d = %g, want 100", i, i+1, m.At(i, i+1))
		}
	}
	if m.At(0, 2) != 0 || m.At(1, 0) != 0 {
		t.Error("unexpected extra dependencies")
	}
}

func TestDependencyMatrixUnsizedLocationCountsOne(t *testing.T) {
	p := MustProgram(2, "m")
	err := p.Run(func(ctx *TaskContext) error {
		h := NewHandle()
		if ctx.TID() == 0 {
			if err := ctx.WriteInsert(h, Loc(0, "m"), 0); err != nil {
				return err
			}
		} else {
			if err := ctx.ReadInsert(h, Loc(0, "m"), 1); err != nil {
				return err
			}
		}
		return ctx.Schedule()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.DependencyMatrix().At(0, 1); got != 1 {
		t.Errorf("unsized dependency volume = %g, want 1", got)
	}
}

func TestScheduleHookAndBindings(t *testing.T) {
	p := MustProgram(2, "m")
	hookRan := make(chan struct{})
	p.SetScheduleHook(func(prog *Program) {
		prog.SetBinding(0, 5)
		prog.SetBinding(1, 9)
		close(hookRan)
	})
	err := p.Run(func(ctx *TaskContext) error { return ctx.Schedule() })
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-hookRan:
	default:
		t.Fatal("schedule hook did not run")
	}
	b := p.Binding()
	if b[0] != 5 || b[1] != 9 {
		t.Errorf("binding = %v", b)
	}
	if !p.Scheduled() {
		t.Error("program should report scheduled")
	}
	// Mutating the returned maps must not leak into the program.
	b[0] = 99
	if p.Binding()[0] != 5 {
		t.Error("Binding returned a live reference")
	}
}

func TestBindingNilWhenEmpty(t *testing.T) {
	p := MustProgram(1, "m")
	if p.Binding() != nil {
		t.Error("empty binding should be nil")
	}
}

func TestControlStatsCount(t *testing.T) {
	p := MustProgram(2, "m")
	err := p.Run(func(ctx *TaskContext) error {
		h := NewHandle()
		if err := ctx.WriteInsert(h, Loc(0, "m"), ctx.TID()); err != nil {
			return err
		}
		if err := ctx.Schedule(); err != nil {
			return err
		}
		return h.Section(func([]byte) error { return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	ins, grants, rels := p.ControlStats()
	if ins != 2 || grants != 2 || rels != 2 {
		t.Errorf("stats = %d/%d/%d, want 2/2/2", ins, grants, rels)
	}
}

func TestRunTasksHeterogeneous(t *testing.T) {
	p := MustProgram(2, "m")
	var a, b atomic.Bool
	err := p.RunTasks([]func(*TaskContext) error{
		func(ctx *TaskContext) error { a.Store(true); return ctx.Schedule() },
		func(ctx *TaskContext) error { b.Store(true); return ctx.Schedule() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Load() || !b.Load() {
		t.Error("not all bodies ran")
	}
	p2 := MustProgram(2, "m")
	if err := p2.RunTasks(nil); err == nil {
		t.Error("accepted wrong body count")
	}
}

func TestRunPropagatesError(t *testing.T) {
	p := MustProgram(2, "m")
	sentinel := fmt.Errorf("boom")
	err := p.Run(func(ctx *TaskContext) error {
		if err := ctx.Schedule(); err != nil {
			return err
		}
		if ctx.TID() == 1 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Errorf("err = %v, want sentinel", err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
