package placement

import (
	"testing"

	"orwlplace/internal/orwl"
)

// movedTasks feeds the delta remap push: nil means "diff unknown, ship
// full frames", an empty non-nil slice means "nothing moved".

func TestMovedTasks(t *testing.T) {
	base := &Assignment{
		ComputePU: []int{0, 1, 2, 3},
		ControlPU: []int{-1, -1, -1, -1},
		CoreOf:    []int{0, 0, 1, 1},
	}

	// Identical assignments: an empty, non-nil diff.
	if mt := movedTasks(base, base.Clone()); mt == nil || len(mt) != 0 {
		t.Fatalf("identical assignments diff = %v, want empty non-nil", mt)
	}

	// A compute move, a control move and a core move each count.
	next := base.Clone()
	next.ComputePU[1] = 7
	next.ControlPU[2] = 5
	next.CoreOf[3] = 2
	if mt := movedTasks(base, next); len(mt) != 3 || mt[0] != 1 || mt[1] != 2 || mt[2] != 3 {
		t.Fatalf("diff = %v, want [1 2 3]", mt)
	}

	// Unknown diffs: nil inputs, unbound sides, shape mismatches.
	unbound := base.Clone()
	unbound.Unbound = true
	short := &Assignment{ComputePU: []int{0, 1}}
	noAux := &Assignment{ComputePU: []int{0, 1, 2, 3}}
	for name, pair := range map[string][2]*Assignment{
		"nil old":          {nil, base},
		"nil new":          {base, nil},
		"unbound old":      {unbound, base},
		"unbound new":      {base, unbound},
		"order mismatch":   {base, short},
		"aux shape change": {base, noAux},
	} {
		if mt := movedTasks(pair[0], pair[1]); mt != nil {
			t.Fatalf("%s: diff = %v, want nil (unknown)", name, mt)
		}
	}
}

// TestMovedTasksAllocatesOnce: the moved set is counted before it is
// built, so the slice the remap publishes is the diff's one allocation,
// with no append growth behind it, and its capacity is its length.
func TestMovedTasksAllocatesOnce(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 160
	old := &Assignment{ComputePU: make([]int, n), ControlPU: make([]int, n), CoreOf: make([]int, n)}
	next := old.Clone()
	for k := 0; k < n; k += 3 {
		next.ComputePU[k] = 1
	}
	var mt []int
	if allocs := testing.AllocsPerRun(10, func() { mt = movedTasks(old, next) }); allocs != 1 {
		t.Errorf("movedTasks made %v allocations, want 1", allocs)
	}
	if len(mt) != (n+2)/3 || cap(mt) != len(mt) {
		t.Errorf("moved set len %d cap %d, want len = cap = %d", len(mt), cap(mt), (n+2)/3)
	}
}

func TestBindTasks(t *testing.T) {
	a := &Assignment{
		Strategy:  TreeMatch,
		ComputePU: []int{1, 2, 3, 4},
		ControlPU: []int{-1, 5, -1, 6},
	}
	prog := orwl.MustProgram(4, "m")
	if err := BindTasks(prog, a, []int{1, 3}); err != nil {
		t.Fatal(err)
	}
	b := prog.Binding()
	if len(b) != 2 || b[1] != 2 || b[3] != 4 {
		t.Fatalf("binding = %v, want only tasks 1 and 3", b)
	}

	// Out-of-range task ids are an error, not a partial bind.
	if err := BindTasks(prog, a, []int{4}); err == nil {
		t.Fatal("task beyond the assignment bound without error")
	}
	if err := BindTasks(prog, a, []int{-1}); err == nil {
		t.Fatal("negative task bound without error")
	}

	// An unbound assignment is a no-op (the OS places), not an error.
	prog3 := orwl.MustProgram(2, "m")
	if err := BindTasks(prog3, &Assignment{Unbound: true}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if prog3.Binding() != nil {
		t.Fatal("unbound assignment produced bindings")
	}

	// Nil program / assignment are refused.
	if err := BindTasks(nil, a, nil); err == nil {
		t.Fatal("nil program accepted")
	}
	if err := BindTasks(prog, nil, nil); err == nil {
		t.Fatal("nil assignment accepted")
	}
}
