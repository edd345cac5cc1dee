package topology

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestSMP12E5Shape(t *testing.T) {
	top := SMP12E5()
	if got := top.NumObjects(NUMANode); got != 12 {
		t.Errorf("NUMA nodes = %d, want 12", got)
	}
	if got := top.NumObjects(Socket); got != 12 {
		t.Errorf("sockets = %d, want 12", got)
	}
	if got := top.NumCores(); got != 96 {
		t.Errorf("cores = %d, want 96", got)
	}
	if got := top.NumPUs(); got != 192 {
		t.Errorf("PUs = %d, want 192", got)
	}
	if !top.Attrs.Hyperthreaded {
		t.Error("SMP12E5 should be hyperthreaded")
	}
	if got := top.Objects(L3)[0].CacheSize; got != 20480<<10 {
		t.Errorf("L3 size = %d, want %d", got, 20480<<10)
	}
}

func TestSMP20E7Shape(t *testing.T) {
	top := SMP20E7()
	if got := top.NumObjects(NUMANode); got != 20 {
		t.Errorf("NUMA nodes = %d, want 20", got)
	}
	if got := top.NumCores(); got != 160 {
		t.Errorf("cores = %d, want 160", got)
	}
	if got := top.NumPUs(); got != 160 {
		t.Errorf("PUs = %d, want 160", got)
	}
	if top.Attrs.Hyperthreaded {
		t.Error("SMP20E7 should not be hyperthreaded")
	}
}

func TestFig2MachineShape(t *testing.T) {
	top := Fig2Machine()
	if got := top.NumObjects(Group); got != 2 {
		t.Errorf("groups = %d, want 2", got)
	}
	if got := top.NumObjects(Socket); got != 4 {
		t.Errorf("sockets = %d, want 4", got)
	}
	if got := top.NumCores(); got != 32 {
		t.Errorf("cores = %d, want 32", got)
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	cases := []Spec{
		{},
		{NUMAPerGroup: 1, SocketsPerNUMA: 1, CoresPerSocket: 0, PUsPerCore: 1},
		{NUMAPerGroup: 1, SocketsPerNUMA: 1, CoresPerSocket: 1, PUsPerCore: 0},
		{NUMAPerGroup: 0, SocketsPerNUMA: 1, CoresPerSocket: 1, PUsPerCore: 1},
	}
	for i, spec := range cases {
		if _, err := Build(spec); err == nil {
			t.Errorf("case %d: Build accepted invalid spec %+v", i, spec)
		}
	}
}

func TestNewRejectsUnbalancedTree(t *testing.T) {
	root := &Object{Type: Machine}
	core := &Object{Type: Core}
	root.Children = []*Object{core, {Type: PU}}
	core.Children = []*Object{{Type: PU}}
	if _, err := New(root, Attrs{}); err == nil {
		t.Fatal("New accepted an unbalanced tree")
	}
}

func TestNewRejectsNonPULeaf(t *testing.T) {
	root := &Object{Type: Machine}
	root.Children = []*Object{{Type: Core}}
	if _, err := New(root, Attrs{}); err == nil {
		t.Fatal("New accepted a non-PU leaf")
	}
	if _, err := New(nil, Attrs{}); err == nil {
		t.Fatal("New accepted a nil root")
	}
}

func TestLogicalIndexesAreDense(t *testing.T) {
	top := SMP12E5()
	for typ := Machine; typ < numObjectTypes; typ++ {
		for i, o := range top.Objects(typ) {
			if o.LogicalIndex != i {
				t.Fatalf("%s logical index = %d, want %d", typ, o.LogicalIndex, i)
			}
		}
	}
}

func TestPUOSIndexesSequential(t *testing.T) {
	top := SMP20E7()
	for i, pu := range top.PUs() {
		if pu.OSIndex != i {
			t.Fatalf("PU %d has OS index %d", i, pu.OSIndex)
		}
	}
}

func TestAncestorAndDepth(t *testing.T) {
	top := TinyHT()
	pu := top.Objects(PU)[0]
	if pu.Depth() != top.Depth() {
		t.Fatalf("PU depth %d != topology depth %d", pu.Depth(), top.Depth())
	}
	if got := pu.Ancestor(0); got != top.Root {
		t.Errorf("Ancestor(0) = %v, want root", got)
	}
	if got := pu.Ancestor(pu.Depth()); got != pu {
		t.Errorf("Ancestor(self depth) = %v, want the PU itself", got)
	}
	if got := pu.Ancestor(-1); got != nil {
		t.Errorf("Ancestor(-1) = %v, want nil", got)
	}
	if got := pu.Ancestor(pu.Depth() + 1); got != nil {
		t.Errorf("Ancestor(below) = %v, want nil", got)
	}
	if got := pu.AncestorOfType(Core); got == nil || got.Type != Core {
		t.Errorf("AncestorOfType(Core) = %v", got)
	}
	if got := pu.AncestorOfType(Group); got != nil {
		t.Errorf("AncestorOfType(Group) = %v, want nil on TinyHT", got)
	}
}

func TestCommonAncestorAndHopDistance(t *testing.T) {
	top := TinyHT() // 2 NUMA x 2 cores x 2 PUs
	pus := top.PUs()
	// Same core: PUs 0 and 1.
	if loc := LocalityOf(pus[0], pus[1]); loc != SameCore {
		t.Errorf("PU0/PU1 locality = %v, want same-core", loc)
	}
	// Same socket/L3, different core: PUs 0 and 2.
	if loc := LocalityOf(pus[0], pus[2]); loc != SameL3 {
		t.Errorf("PU0/PU2 locality = %v, want same-l3", loc)
	}
	// Different NUMA: PUs 0 and 4.
	if loc := LocalityOf(pus[0], pus[4]); loc != CrossGroup && loc != SameGroup {
		// TinyHT has no Group level; common ancestor is the machine.
		t.Errorf("PU0/PU4 locality = %v", loc)
	}
	if loc := LocalityOf(pus[3], pus[3]); loc != SamePU {
		t.Errorf("self locality = %v, want same-pu", loc)
	}
	if d := HopDistance(pus[0], pus[0]); d != 0 {
		t.Errorf("self distance = %d", d)
	}
	d01 := HopDistance(pus[0], pus[1])
	d02 := HopDistance(pus[0], pus[2])
	d04 := HopDistance(pus[0], pus[4])
	if !(d01 < d02 && d02 < d04) {
		t.Errorf("distances not monotone: same-core %d, same-socket %d, cross-numa %d", d01, d02, d04)
	}
}

func TestLocalityOfFig2CrossBlade(t *testing.T) {
	top := Fig2Machine()
	pus := top.PUs()
	// 8 cores per socket, 2 sockets per blade: PU 0 and PU 8 are on
	// different sockets of the same blade; PU 0 and PU 16 cross blades.
	if loc := LocalityOf(pus[0], pus[8]); loc != SameGroup {
		t.Errorf("same-blade cross-numa locality = %v, want same-group", loc)
	}
	if loc := LocalityOf(pus[0], pus[16]); loc != CrossGroup {
		t.Errorf("cross-blade locality = %v, want cross-group", loc)
	}
}

func TestAritiesProduct(t *testing.T) {
	for _, top := range []*Topology{SMP12E5(), SMP20E7(), Fig2Machine(), TinyHT(), TinyFlat()} {
		prod := 1
		for _, a := range top.Arities() {
			prod *= a
		}
		if prod != top.NumPUs() {
			t.Errorf("%s: product of arities %v = %d, want %d PUs",
				top.Attrs.Name, top.Arities(), prod, top.NumPUs())
		}
	}
}

func TestObjectsAtDepth(t *testing.T) {
	top := TinyFlat()
	if got := len(top.ObjectsAtDepth(0)); got != 1 {
		t.Errorf("objects at depth 0 = %d, want 1", got)
	}
	if got := len(top.ObjectsAtDepth(top.Depth())); got != top.NumPUs() {
		t.Errorf("objects at leaf depth = %d, want %d", got, top.NumPUs())
	}
}

// TestObjectsAtDepthMatchesWalk: the per-depth lists New builds equal a
// depth-first walk of the tree on every machine and its subtrees, each
// object's DepthIndex is its position there, and a depth outside the
// tree has no objects.
func TestObjectsAtDepthMatchesWalk(t *testing.T) {
	walk := func(top *Topology, depth int) []*Object {
		var out []*Object
		var visit func(*Object)
		visit = func(o *Object) {
			if o.Depth() == depth {
				out = append(out, o)
				return
			}
			for _, c := range o.Children {
				visit(c)
			}
		}
		visit(top.Root)
		return out
	}
	check := func(top *Topology) {
		for depth := -1; depth <= top.Depth()+1; depth++ {
			got, want := top.ObjectsAtDepth(depth), walk(top, depth)
			if !slices.Equal(got, want) {
				t.Fatalf("%s depth %d: %d objects, the walk finds %d", top.Attrs.Name, depth, len(got), len(want))
			}
			for i, o := range got {
				if o.DepthIndex() != i {
					t.Fatalf("%s depth %d: %s at position %d has DepthIndex %d", top.Attrs.Name, depth, o, i, o.DepthIndex())
				}
			}
		}
	}
	for _, name := range MachineNames() {
		top, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		check(top)
		for _, o := range top.ObjectsAtDepth(1) {
			sub, err := Subtree(top, o)
			if err != nil {
				t.Fatal(err)
			}
			check(sub)
		}
	}
}

func TestPUsUnderObject(t *testing.T) {
	top := TinyHT()
	numa := top.Objects(NUMANode)[0]
	pus := numa.PUs()
	if len(pus) != 4 {
		t.Fatalf("PUs under first NUMA = %d, want 4", len(pus))
	}
	for _, pu := range pus {
		if pu.AncestorOfType(NUMANode) != numa {
			t.Errorf("PU %v not under expected NUMA node", pu)
		}
	}
}

func TestPUBoundsChecks(t *testing.T) {
	top := TinyFlat()
	if top.Objects(ObjectType(-1)) != nil {
		t.Error("Objects with invalid type should return nil")
	}
}

func TestRenderContainsKeyObjects(t *testing.T) {
	out := render(TinyHT())
	for _, want := range []string{"TinyHT", "NUMANode#1", "Core#3", "PU#7", "L3#0 (4MB)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, top := range []*Topology{TinyHT(), Fig2Machine()} {
		data, err := top.MarshalJSON()
		if err != nil {
			t.Fatalf("%s: marshal: %v", top.Attrs.Name, err)
		}
		got, err := FromJSON(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", top.Attrs.Name, err)
		}
		if got.NumPUs() != top.NumPUs() || got.NumCores() != top.NumCores() ||
			got.Depth() != top.Depth() || got.Attrs.Name != top.Attrs.Name {
			t.Errorf("%s: round trip changed shape", top.Attrs.Name)
		}
		if render(got) != render(top) {
			t.Errorf("%s: round trip changed rendering", top.Attrs.Name)
		}
	}
}

func TestFromJSONRejectsGarbage(t *testing.T) {
	if _, err := FromJSON([]byte(`{"root":{"type":"Gizmo"}}`)); err == nil {
		t.Error("FromJSON accepted unknown object type")
	}
	if _, err := FromJSON([]byte(`not json`)); err == nil {
		t.Error("FromJSON accepted non-JSON")
	}
}

func TestObjectTypeString(t *testing.T) {
	if Machine.String() != "Machine" || PU.String() != "PU" {
		t.Error("object type names wrong")
	}
	if got := ObjectType(99).String(); !strings.Contains(got, "99") {
		t.Errorf("invalid type String() = %q", got)
	}
	if ObjectType(99).Valid() {
		t.Error("ObjectType(99) should be invalid")
	}
}

func TestLocalityString(t *testing.T) {
	if SameCore.String() != "same-core" || CrossGroup.String() != "cross-group" {
		t.Error("locality names wrong")
	}
	if got := Locality(42).String(); !strings.Contains(got, "42") {
		t.Errorf("invalid locality String() = %q", got)
	}
}

// Property: hop distance is a metric restricted to the tree — symmetric,
// zero iff equal, and satisfies the triangle inequality.
func TestHopDistanceMetricProperties(t *testing.T) {
	top := SMP12E5()
	pus := top.PUs()
	n := len(pus)
	f := func(a, b, c uint16) bool {
		i, j, k := int(a)%n, int(b)%n, int(c)%n
		dij := HopDistance(pus[i], pus[j])
		dji := HopDistance(pus[j], pus[i])
		if dij != dji {
			return false
		}
		if (dij == 0) != (i == j) {
			return false
		}
		dik := HopDistance(pus[i], pus[k])
		dkj := HopDistance(pus[k], pus[j])
		return dij <= dik+dkj
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the common ancestor of two objects is an ancestor of both
// and is the deepest such object.
func TestCommonAncestorProperty(t *testing.T) {
	top := SMP20E7()
	pus := top.PUs()
	n := len(pus)
	f := func(a, b uint16) bool {
		x, y := pus[int(a)%n], pus[int(b)%n]
		ca := CommonAncestor(x, y)
		if ca == nil {
			return false
		}
		if x.Ancestor(ca.Depth()) != ca || y.Ancestor(ca.Depth()) != ca {
			return false
		}
		// One level deeper the ancestors must differ (unless x == y).
		if x == y {
			return ca == x
		}
		if ca.Depth() == x.Depth() {
			return true
		}
		return x.Ancestor(ca.Depth()+1) != y.Ancestor(ca.Depth()+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// render is the Render output as a string.
func render(t *Topology) string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}
