package topology

import "testing"

// Tests on hand-built trees covering shapes the generic builder cannot
// produce (shared L2s, missing cache levels).

// sharedL2Machine builds 1 socket with one L2 shared by two cores.
func sharedL2Machine(t *testing.T) *Topology {
	t.Helper()
	root := &Object{Type: Machine}
	numa := &Object{Type: NUMANode, Memory: 1 << 30}
	sock := &Object{Type: Socket}
	l2 := &Object{Type: L2, CacheSize: 1 << 20}
	root.Children = []*Object{numa}
	numa.Children = []*Object{sock}
	sock.Children = []*Object{l2}
	for c := 0; c < 2; c++ {
		core := &Object{Type: Core}
		core.Children = []*Object{{Type: PU}}
		l2.Children = append(l2.Children, core)
	}
	top, err := New(root, Attrs{Name: "sharedL2"})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestSharedL2Locality(t *testing.T) {
	top := sharedL2Machine(t)
	pus := top.PUs()
	if len(pus) != 2 {
		t.Fatalf("PUs = %d", len(pus))
	}
	if loc := LocalityOf(pus[0], pus[1]); loc != SameL2 {
		t.Errorf("locality = %v, want same-l2", loc)
	}
}

func TestNoCacheMachine(t *testing.T) {
	// NUMA -> Socket -> Core -> PU without any cache objects.
	root := &Object{Type: Machine}
	for n := 0; n < 2; n++ {
		numa := &Object{Type: NUMANode}
		sock := &Object{Type: Socket}
		core := &Object{Type: Core}
		core.Children = []*Object{{Type: PU}}
		sock.Children = []*Object{core}
		numa.Children = []*Object{sock}
		root.Children = append(root.Children, numa)
	}
	top, err := New(root, Attrs{Name: "nocache"})
	if err != nil {
		t.Fatal(err)
	}
	pus := top.PUs()
	// Common ancestor is the machine: cross-group locality by our
	// classification (no Group level).
	if loc := LocalityOf(pus[0], pus[1]); loc != CrossGroup {
		t.Errorf("locality = %v", loc)
	}
	if top.NumObjects(L3) != 0 {
		t.Error("phantom caches")
	}
}

func TestOSIndexPreserved(t *testing.T) {
	// Explicit OS indexes must survive New and JSON round trips.
	root := &Object{Type: Machine}
	core := &Object{Type: Core}
	core.Children = []*Object{{Type: PU, OSIndex: 7}, {Type: PU, OSIndex: 3}}
	root.Children = []*Object{core}
	top, err := New(root, Attrs{Name: "osidx"})
	if err != nil {
		t.Fatal(err)
	}
	if top.PUs()[0].OSIndex != 7 || top.PUs()[1].OSIndex != 3 {
		t.Errorf("OS indexes = %d/%d", top.PUs()[0].OSIndex, top.PUs()[1].OSIndex)
	}
	data, err := top.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.PUs()[0].OSIndex != 7 || back.PUs()[1].OSIndex != 3 {
		t.Error("OS indexes lost in round trip")
	}
}

func TestObjectStringAndPUsOnLeaf(t *testing.T) {
	top := TinyFlat()
	pu := top.Objects(PU)[0]
	if pu.String() != "PU#0" {
		t.Errorf("String = %q", pu.String())
	}
	if got := pu.PUs(); len(got) != 1 || got[0] != pu {
		t.Error("PUs of a leaf should be itself")
	}
	if pu.IsLeaf() != true || top.Root.IsLeaf() {
		t.Error("leaf detection wrong")
	}
	if top.Root.Arity() == 0 {
		t.Error("root arity zero")
	}
}

func TestHopDistanceDisjointTrees(t *testing.T) {
	a := TinyFlat()
	b := TinyFlat()
	if d := HopDistance(a.Objects(PU)[0], b.Objects(PU)[0]); d != -1 {
		t.Errorf("disjoint distance = %d, want -1", d)
	}
	if CommonAncestor(a.Objects(PU)[0], nil) != nil {
		t.Error("nil ancestor should be nil")
	}
}
