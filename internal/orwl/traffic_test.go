package orwl

import (
	"testing"
)

// runObservedPipeline drives iters rounds of a 1->2->...->n pipeline over
// iterative handles, so the observed counters see real traffic.
func runObservedPipeline(t *testing.T, tasks, size, iters int) *Program {
	t.Helper()
	prog := MustProgram(tasks, "data")
	err := prog.Run(func(ctx *TaskContext) error {
		if err := ctx.Scale("data", size); err != nil {
			return err
		}
		w := NewHandle2()
		if err := ctx.WriteInsert(w, Loc(ctx.TID(), "data"), 0); err != nil {
			return err
		}
		var r *Handle
		if ctx.TID() > 0 {
			r = NewHandle2()
			if err := ctx.ReadInsert(r, Loc(ctx.TID()-1, "data"), 1); err != nil {
				return err
			}
		}
		if err := ctx.Schedule(); err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if err := w.Section(func(buf []byte) error { return nil }); err != nil {
				return err
			}
			if r != nil {
				if err := r.Section(func(buf []byte) error { return nil }); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestObservedMatrixPipeline(t *testing.T) {
	const tasks, size, iters = 4, 1 << 10, 5
	prog := runObservedPipeline(t, tasks, size, iters)

	obs := prog.ObservedMatrix()
	if obs.Order() != tasks {
		t.Fatalf("observed order %d, want %d", obs.Order(), tasks)
	}
	// Reader i observes writer i-1's data once per iteration after the
	// first write lands; the writer races the reader per round, so the
	// count is iters +- 1 grants of `size` bytes each.
	for i := 1; i < tasks; i++ {
		got := obs.At(i-1, i)
		lo, hi := float64((iters-1)*size), float64((iters+1)*size)
		if got < lo || got > hi {
			t.Errorf("observed(%d->%d) = %g, want within [%g, %g]", i-1, i, got, lo, hi)
		}
	}
	// Nothing flows against the pipeline direction or between
	// non-adjacent tasks.
	for i := 0; i < tasks; i++ {
		for j := 0; j < tasks; j++ {
			if j == i+1 {
				continue
			}
			if v := obs.At(i, j); v != 0 {
				t.Errorf("observed(%d->%d) = %g, want 0", i, j, v)
			}
		}
	}
	if bytes, ops := prog.Traffic().Totals(); bytes == 0 || ops == 0 {
		t.Errorf("Totals() = (%d, %d), want both positive", bytes, ops)
	}
}

func TestObservedWindowPartitionsTraffic(t *testing.T) {
	const tasks, size, iters = 3, 256, 4
	prog := runObservedPipeline(t, tasks, size, iters)

	w1 := prog.ObservedWindow()
	if w1.Total() == 0 {
		t.Fatal("first window empty, want the run's traffic")
	}
	w2 := prog.ObservedWindow()
	if w2.Total() != 0 {
		t.Errorf("second window total %g, want 0 (no traffic between windows)", w2.Total())
	}
	// Windows partition the cumulative matrix.
	if got, want := w1.Total(), prog.ObservedMatrix().Total(); got != want {
		t.Errorf("window total %g != cumulative total %g", got, want)
	}
}

func TestObservedDivergesFromDeclared(t *testing.T) {
	// Declared: a pipeline. Actually driven: task 2 reads task 0 via
	// steady-state raw requests. The declared matrix keeps the
	// pipeline shape; the observed matrix shows the real flow.
	prog := MustProgram(3, "data")
	var rawObs *RawRequest
	err := prog.Run(func(ctx *TaskContext) error {
		if err := ctx.Scale("data", 128); err != nil {
			return err
		}
		w := NewHandle()
		if err := ctx.WriteInsert(w, Loc(ctx.TID(), "data"), 0); err != nil {
			return err
		}
		if ctx.TID() > 0 {
			r := NewHandle()
			if err := ctx.ReadInsert(r, Loc(ctx.TID()-1, "data"), 1); err != nil {
				return err
			}
		}
		if err := ctx.Schedule(); err != nil {
			return err
		}
		if err := w.Section(func([]byte) error { return nil }); err != nil {
			return err
		}
		if ctx.TID() == 2 {
			req, err := ctx.Request(Loc(0, "data"), Read)
			if err != nil {
				return err
			}
			req.Await()
			if err := req.Release(); err != nil {
				return err
			}
			rawObs = req
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = rawObs

	decl := prog.DependencyMatrix()
	obs := prog.ObservedMatrix()
	if decl.At(0, 2) != 0 {
		t.Errorf("declared(0->2) = %g, want 0: the raw request is invisible to the handle graph", decl.At(0, 2))
	}
	if obs.At(0, 2) != 128 {
		t.Errorf("observed(0->2) = %g, want 128 from the steady-state read", obs.At(0, 2))
	}
}

func TestUnattributedRequestsRecordNothing(t *testing.T) {
	prog := MustProgram(2, "data")
	loc := prog.Location(Loc(0, "data"))
	loc.Scale(64)

	w := loc.NewRequestFor(0, Write)
	w.Await()
	if err := w.Release(); err != nil {
		t.Fatal(err)
	}
	r := loc.NewRequest(Read) // remote-peer path: no task identity
	r.Await()
	if err := r.Release(); err != nil {
		t.Fatal(err)
	}
	if total := prog.ObservedMatrix().Total(); total != 0 {
		t.Errorf("observed total %g after unattributed read, want 0", total)
	}
}

func TestTrafficRecordBounds(t *testing.T) {
	tr := newTraffic(2)
	tr.Record(-1, 1, 10) // unattributed producer
	tr.Record(0, -1, 10) // unattributed consumer
	tr.Record(0, 0, 10)  // self pair
	tr.Record(5, 1, 10)  // out of range
	tr.Record(0, 7, 10)  // out of range
	if bytes, ops := tr.Totals(); bytes != 0 || ops != 0 {
		t.Errorf("Totals() = (%d, %d) after invalid records, want (0, 0)", bytes, ops)
	}
	var nilT *Traffic
	nilT.Record(0, 1, 10) // must not panic
}
