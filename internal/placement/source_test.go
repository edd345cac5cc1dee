package placement

import (
	"strings"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/orwl"
	"orwlplace/internal/topology"
)

// wiredProgram returns a scheduled 4-task pipeline program.
func wiredProgram(t *testing.T) *orwl.Program {
	t.Helper()
	prog := orwl.MustProgram(4, "data")
	err := prog.Run(func(ctx *orwl.TaskContext) error {
		if err := ctx.Scale("data", 512); err != nil {
			return err
		}
		w := orwl.NewHandle()
		if err := ctx.WriteInsert(w, orwl.Loc(ctx.TID(), "data"), 0); err != nil {
			return err
		}
		if ctx.TID() > 0 {
			r := orwl.NewHandle()
			if err := ctx.ReadInsert(r, orwl.Loc(ctx.TID()-1, "data"), 1); err != nil {
				return err
			}
		}
		return ctx.Schedule()
	})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func testEngine(t *testing.T) *Engine {
	t.Helper()
	top, err := topology.ByName("tinyht")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(top)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestExtractMatrixNilProgram(t *testing.T) {
	eng := testEngine(t)
	if _, err := eng.Extract(Declared(nil)); err == nil || !strings.Contains(err.Error(), "nil program") {
		t.Errorf("Extract(Declared(nil)) error = %v, want nil-program error", err)
	}
	if _, err := eng.Extract(nil); err == nil {
		t.Error("Extract(nil) accepted")
	}
}

func TestExtractMatrixUnscheduledProgram(t *testing.T) {
	eng := testEngine(t)
	prog := orwl.MustProgram(4, "data") // no handles, never scheduled
	_, err := eng.Extract(Declared(prog))
	if err == nil || !strings.Contains(err.Error(), "no handle insertions") {
		t.Errorf("Extract(Declared(unscheduled)) error = %v, want descriptive error", err)
	}
}

func TestDeclaredSourceMatchesDependencyMatrix(t *testing.T) {
	prog := wiredProgram(t)
	eng := testEngine(t)
	m, err := eng.Extract(Declared(prog))
	if err != nil {
		t.Fatal(err)
	}
	want := prog.DependencyMatrix()
	for i := 0; i < want.Order(); i++ {
		for j := 0; j < want.Order(); j++ {
			if m.At(i, j) != want.At(i, j) {
				t.Fatalf("declared(%d,%d) = %g, want %g", i, j, m.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestObservedSourceWindows(t *testing.T) {
	prog := wiredProgram(t)
	src := ObservedWindow(prog)
	if src.Name() != "observed-window" {
		t.Errorf("name = %q", src.Name())
	}
	// The wired program ran no critical sections, so windows are empty
	// but well-formed.
	a, err := src.Affinity()
	if err != nil {
		t.Fatal(err)
	}
	if a.Order() != 4 || a.Total() != 0 {
		t.Errorf("window = order %d total %g, want order 4 total 0", a.Order(), a.Total())
	}
	if _, err := ObservedWindow(nil).Affinity(); err == nil {
		t.Error("ObservedWindow(nil) accepted")
	}
}

func TestFixedSource(t *testing.T) {
	m := comm.NewMatrix(3)
	m.Set(0, 1, 7)
	src := Fixed("trace", m)
	got, err := src.Affinity()
	if err != nil || got.At(0, 1) != 7 {
		t.Errorf("Fixed.Affinity() = %v, %v", got, err)
	}
	if src.Name() != "trace" {
		t.Errorf("name = %q", src.Name())
	}
	if _, err := Fixed("", nil).Affinity(); err == nil {
		t.Error("Fixed(nil) accepted")
	}
}

// TestAffinitySourceAdapters covers Fixed over either affinity
// representation: a dense matrix and a sparse one serve the same
// affinity through the one Source, and a nil one, typed or not, is
// refused.
func TestAffinitySourceAdapters(t *testing.T) {
	m := ringMatrix(4, 1)
	for _, a := range []comm.Affinity{m, comm.SparseFromMatrix(m)} {
		src := Fixed("trace", a)
		if src.Name() != "trace" {
			t.Fatalf("%T source name %q", a, src.Name())
		}
		aff, err := src.Affinity()
		if err != nil {
			t.Fatal(err)
		}
		if aff.Order() != 4 || aff.Total() != m.Total() || aff.At(0, 1) != m.At(0, 1) {
			t.Fatalf("%T source affinity order %d total %v", a, aff.Order(), aff.Total())
		}
	}

	if name := Fixed("", comm.NewSparse(3)).Name(); name != "fixed" {
		t.Fatalf("default fixed name %q", name)
	}
	var typedNil *comm.Matrix
	var typedNilSparse *comm.Sparse
	for _, a := range []comm.Affinity{nil, typedNil, typedNilSparse} {
		if _, err := Fixed("empty", a).Affinity(); err == nil {
			t.Errorf("Fixed(%#v) accepted", a)
		}
	}
}

// TestObservedWindowSourcesIndependent guards the per-source window
// baseline: two windowed sources over one program must each see every
// epoch, not steal epochs from each other.
func TestObservedWindowSourcesIndependent(t *testing.T) {
	prog := orwl.MustProgram(2, "data")
	loc := prog.Location(orwl.Loc(0, "data"))
	loc.Scale(100)
	transfer := func() {
		w := loc.NewRequestFor(0, orwl.Write)
		w.Await()
		if err := w.Release(); err != nil {
			t.Fatal(err)
		}
		r := loc.NewRequestFor(1, orwl.Read)
		r.Await()
		if err := r.Release(); err != nil {
			t.Fatal(err)
		}
	}

	a, b := ObservedWindow(prog), ObservedWindow(prog)
	transfer()
	ma, err := a.Affinity()
	if err != nil {
		t.Fatal(err)
	}
	if ma.Total() != 100 {
		t.Fatalf("source a window total %g, want 100", ma.Total())
	}
	// Source b must still see the same epoch even though a consumed it.
	mb, err := b.Affinity()
	if err != nil {
		t.Fatal(err)
	}
	if mb.Total() != 100 {
		t.Fatalf("source b window total %g, want 100 (epoch stolen by source a)", mb.Total())
	}
	// And the program's default window is a third independent consumer.
	if got := prog.ObservedWindow().Total(); got != 100 {
		t.Fatalf("program default window total %g, want 100", got)
	}
	transfer()
	if got, _ := a.Affinity(); got.Total() != 100 {
		t.Fatalf("source a second epoch total %g, want 100", got.Total())
	}
}
