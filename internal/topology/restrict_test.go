package topology

import "testing"

func TestRestrictShape(t *testing.T) {
	top := SMP12E5()
	r, err := Restrict(top, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.NumObjects(NUMANode); got != 4 {
		t.Errorf("NUMA nodes = %d", got)
	}
	if got := r.NumCores(); got != 32 {
		t.Errorf("cores = %d", got)
	}
	if got := r.NumPUs(); got != 64 {
		t.Errorf("PUs = %d (hyperthreaded)", got)
	}
	if r.Depth() != top.Depth() {
		t.Errorf("depth changed: %d vs %d", r.Depth(), top.Depth())
	}
	if !r.Attrs.Hyperthreaded || r.Attrs.ClockMHz != top.Attrs.ClockMHz {
		t.Error("attributes lost")
	}
	// The original is untouched.
	if top.NumObjects(NUMANode) != 12 {
		t.Error("Restrict mutated its input")
	}
}

func TestRestrictFullMachineIsCopy(t *testing.T) {
	top := TinyFlat()
	r, err := Restrict(top, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumPUs() != top.NumPUs() {
		t.Error("full restriction changed shape")
	}
	// Independent trees: scaling an object on one must not affect the
	// other (structural check: different object pointers).
	if r.Root == top.Root || r.Objects(PU)[0] == top.Objects(PU)[0] {
		t.Error("Restrict returned shared objects")
	}
}

func TestRestrictValidation(t *testing.T) {
	top := TinyFlat()
	if _, err := Restrict(top, 0); err == nil {
		t.Error("accepted zero nodes")
	}
	if _, err := Restrict(top, 3); err == nil {
		t.Error("accepted more nodes than exist")
	}
}

func TestRestrictOnGroupedMachine(t *testing.T) {
	top := Fig2Machine() // 2 groups x 2 NUMA
	r, err := Restrict(top, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.NumObjects(NUMANode); got != 2 {
		t.Errorf("NUMA nodes = %d", got)
	}
	// The second blade is emptied and must disappear entirely.
	if got := r.NumObjects(Group); got != 1 {
		t.Errorf("groups = %d, want 1", got)
	}
	if got := r.NumCores(); got != 16 {
		t.Errorf("cores = %d", got)
	}
	// Restricting to 3 keeps one node of the second blade.
	r3, err := Restrict(top, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := r3.NumObjects(Group); got != 2 {
		t.Errorf("groups after 3-node cut = %d, want 2", got)
	}
	if got := r3.NumCores(); got != 24 {
		t.Errorf("cores = %d", got)
	}
}
