// Package topology provides a portable, abstracted view of the hardware
// topology of a shared-memory machine, playing the role that hwloc plays
// in the paper.
//
// A Topology is a tree of Objects: the machine at the root, then NUMA
// groups (blades), NUMA nodes, sockets, cache levels, cores and
// processing units (PUs, i.e. hardware threads) at the leaves. The
// mapping algorithm (internal/treematch) consumes the tree shape (depths
// and arities); the performance simulator (internal/perfsim) consumes
// the cache sizes, latencies and NUMA interconnect attributes.
//
// Synthetic builders reproduce the two testbed machines of the paper's
// Table I (SMP12E5 and SMP20E7) as well as the 4-socket machine of
// Fig. 2; a generic builder constructs arbitrary balanced machines.
package topology

import "fmt"

// ObjectType enumerates the kinds of objects found in a topology tree,
// ordered from the root (Machine) towards the leaves (PU).
type ObjectType int

// Object types, from outermost to innermost.
const (
	Machine ObjectType = iota
	Group              // a NUMA group or blade connecting several NUMA nodes
	NUMANode
	Socket
	L3
	L2
	L1
	Core
	PU // processing unit: one hardware thread
	numObjectTypes
)

var objectTypeNames = [...]string{
	Machine:  "Machine",
	Group:    "Group",
	NUMANode: "NUMANode",
	Socket:   "Socket",
	L3:       "L3",
	L2:       "L2",
	L1:       "L1",
	Core:     "Core",
	PU:       "PU",
}

// String returns the hwloc-style name of the object type.
func (t ObjectType) String() string {
	if t < 0 || int(t) >= len(objectTypeNames) {
		return fmt.Sprintf("ObjectType(%d)", int(t))
	}
	return objectTypeNames[t]
}

// Valid reports whether t is one of the defined object types.
func (t ObjectType) Valid() bool { return t >= Machine && t < numObjectTypes }

// Object is one vertex of the topology tree.
type Object struct {
	Type ObjectType
	// LogicalIndex numbers objects of the same type across the whole
	// machine in depth-first order (like hwloc logical indexes).
	LogicalIndex int
	// OSIndex is the operating-system numbering; for PUs this is the
	// index used in binding masks. It equals LogicalIndex for the
	// synthetic machines built here.
	OSIndex int
	// CacheSize is the capacity in bytes for L1/L2/L3 objects, zero
	// otherwise.
	CacheSize int64
	// Memory is the local memory in bytes for Machine and NUMANode
	// objects, zero otherwise.
	Memory int64

	Parent   *Object
	Children []*Object

	depth int // root = 0
}

// Depth returns the depth of the object in the tree; the root machine
// has depth 0.
func (o *Object) Depth() int { return o.depth }

// Arity returns the number of children.
func (o *Object) Arity() int { return len(o.Children) }

// IsLeaf reports whether the object has no children.
func (o *Object) IsLeaf() bool { return len(o.Children) == 0 }

// String renders the object as "Type#logical".
func (o *Object) String() string {
	return fmt.Sprintf("%s#%d", o.Type, o.LogicalIndex)
}

// Ancestor returns the ancestor of o at the given depth, or nil if depth
// is below o or negative.
func (o *Object) Ancestor(depth int) *Object {
	if depth < 0 || depth > o.depth {
		return nil
	}
	cur := o
	for cur.depth > depth {
		cur = cur.Parent
	}
	return cur
}

// AncestorOfType returns the closest ancestor (possibly o itself) with
// the given type, or nil if there is none.
func (o *Object) AncestorOfType(t ObjectType) *Object {
	for cur := o; cur != nil; cur = cur.Parent {
		if cur.Type == t {
			return cur
		}
	}
	return nil
}

// PUs returns all PU leaves below o in logical order.
func (o *Object) PUs() []*Object {
	var out []*Object
	var walk func(*Object)
	walk = func(x *Object) {
		if x.Type == PU {
			out = append(out, x)
			return
		}
		for _, c := range x.Children {
			walk(c)
		}
	}
	walk(o)
	return out
}

// Attrs carries machine-wide attributes used for reporting (Table I) and
// by the performance simulator.
type Attrs struct {
	Name             string
	OS               string
	Kernel           string
	SocketModel      string
	ClockMHz         float64
	Hyperthreaded    bool
	InterconnectName string
	// InterconnectGBps is the NUMA interconnect bandwidth in GB/s.
	InterconnectGBps float64
	// LocalMemGBps is the local DRAM bandwidth of one NUMA node in
	// GB/s.
	LocalMemGBps float64
	// Latencies of a miss serviced at each level, in core cycles.
	L1LatencyCycles   float64
	L2LatencyCycles   float64
	L3LatencyCycles   float64
	DRAMLatencyCycles float64
	// RemoteNUMAFactor multiplies DRAM latency for an access serviced
	// by a remote NUMA node on the same group.
	RemoteNUMAFactor float64
	// CrossGroupFactor multiplies DRAM latency for an access serviced
	// across groups/blades.
	CrossGroupFactor float64
}

// Topology is an immutable topology tree plus cached per-type object
// lists.
type Topology struct {
	Root  *Object
	Attrs Attrs

	byType [numObjectTypes][]*Object
	depth  int
}

// New finalises a tree rooted at root: it assigns depths and logical
// indexes and builds the per-type caches. The tree must be non-empty and
// all leaves must be PUs at the same depth.
func New(root *Object, attrs Attrs) (*Topology, error) {
	if root == nil {
		return nil, fmt.Errorf("topology: nil root")
	}
	t := &Topology{Root: root, Attrs: attrs}
	counters := make([]int, numObjectTypes)
	leafDepth := -1
	var walk func(o *Object, depth int) error
	walk = func(o *Object, depth int) error {
		if !o.Type.Valid() {
			return fmt.Errorf("topology: invalid object type %d", int(o.Type))
		}
		o.depth = depth
		o.LogicalIndex = counters[o.Type]
		counters[o.Type]++
		if o.OSIndex == 0 {
			o.OSIndex = o.LogicalIndex
		}
		t.byType[o.Type] = append(t.byType[o.Type], o)
		if o.IsLeaf() {
			if o.Type != PU {
				return fmt.Errorf("topology: leaf %s is not a PU", o)
			}
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("topology: unbalanced tree: PU at depth %d and %d", leafDepth, depth)
			}
			return nil
		}
		for _, c := range o.Children {
			c.Parent = o
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root, 0); err != nil {
		return nil, err
	}
	if len(t.byType[PU]) == 0 {
		return nil, fmt.Errorf("topology: no PUs")
	}
	t.depth = leafDepth
	return t, nil
}

// Depth returns the depth of the PU leaves (the root is at depth 0).
func (t *Topology) Depth() int { return t.depth }

// Objects returns all objects of the given type in logical order. The
// returned slice must not be modified.
func (t *Topology) Objects(typ ObjectType) []*Object {
	if !typ.Valid() {
		return nil
	}
	return t.byType[typ]
}

// NumObjects returns the number of objects of the given type.
func (t *Topology) NumObjects(typ ObjectType) int { return len(t.Objects(typ)) }

// PUs returns the processing units in logical order.
func (t *Topology) PUs() []*Object { return t.byType[PU] }

// Cores returns the cores in logical order.
func (t *Topology) Cores() []*Object { return t.byType[Core] }

// NumPUs returns the number of processing units.
func (t *Topology) NumPUs() int { return len(t.byType[PU]) }

// NumCores returns the number of physical cores.
func (t *Topology) NumCores() int { return len(t.byType[Core]) }

// ObjectsAtDepth returns the objects at the given tree depth in
// depth-first order.
func (t *Topology) ObjectsAtDepth(depth int) []*Object {
	var out []*Object
	var walk func(*Object)
	walk = func(o *Object) {
		if o.depth == depth {
			out = append(out, o)
			return
		}
		for _, c := range o.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return out
}

// Arities returns the arity of each level from the root (index 0) down
// to the parents of the PUs. For the balanced synthetic machines every
// object at a level has the same arity; if arities differ the maximum is
// reported.
func (t *Topology) Arities() []int {
	ar := make([]int, t.depth)
	// A single walk touching every object once, instead of one
	// ObjectsAtDepth materialization per level: Arities sits on the
	// mapping hot path (coreArities runs per treematch.Map call).
	var walk func(*Object)
	walk = func(o *Object) {
		if o.depth < len(ar) && o.Arity() > ar[o.depth] {
			ar[o.depth] = o.Arity()
		}
		for _, c := range o.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return ar
}

// CommonAncestor returns the deepest object that is an ancestor of both
// a and b (possibly one of them).
func CommonAncestor(a, b *Object) *Object {
	for a != nil && b != nil {
		if a.depth > b.depth {
			a = a.Parent
			continue
		}
		if b.depth > a.depth {
			b = b.Parent
			continue
		}
		if a == b {
			return a
		}
		a, b = a.Parent, b.Parent
	}
	return nil
}

// HopDistance returns the number of tree edges on the path between a and
// b (0 if a == b). It is the distance notion TreeMatch minimises.
func HopDistance(a, b *Object) int {
	ca := CommonAncestor(a, b)
	if ca == nil {
		return -1
	}
	return (a.depth - ca.depth) + (b.depth - ca.depth)
}

// Locality classifies how close two PUs are in the memory hierarchy.
type Locality int

// Localities from closest to farthest.
const (
	SamePU Locality = iota
	SameCore
	SameL2
	SameL3
	SameNUMA
	SameGroup
	CrossGroup
)

var localityNames = [...]string{
	SamePU:     "same-pu",
	SameCore:   "same-core",
	SameL2:     "same-l2",
	SameL3:     "same-l3",
	SameNUMA:   "same-numa",
	SameGroup:  "same-group",
	CrossGroup: "cross-group",
}

// String names the locality class.
func (l Locality) String() string {
	if l < 0 || int(l) >= len(localityNames) {
		return fmt.Sprintf("Locality(%d)", int(l))
	}
	return localityNames[l]
}

// LocalityOf classifies the relationship between two PUs.
func LocalityOf(a, b *Object) Locality {
	if a == b {
		return SamePU
	}
	return LocalityUnder(CommonAncestor(a, b))
}

// LocalityUnder classifies two distinct PUs by their common ancestor ca
// (nil when they share none): LocalityOf for a caller that already
// holds the ancestor.
func LocalityUnder(ca *Object) Locality {
	if ca == nil {
		return CrossGroup
	}
	switch ca.Type {
	case Core:
		return SameCore
	case L1:
		return SameCore
	case L2:
		return SameL2
	case L3, Socket:
		return SameL3
	case NUMANode:
		return SameNUMA
	case Group:
		return SameGroup
	default:
		return CrossGroup
	}
}
