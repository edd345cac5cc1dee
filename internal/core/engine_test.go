package core

import (
	"strings"
	"testing"

	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// TestSharedEngineCachesAcrossModules is the dynamic-program story:
// phases attach fresh modules to one engine, and a phase whose
// communication matrix was seen before is served from the mapping
// cache.
func TestSharedEngineCachesAcrossModules(t *testing.T) {
	eng, err := placement.NewEngine(topology.Fig2Machine())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		prog := orwlMustPipeline(t, 6)
		mod, err := Attach(prog, nil, WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		if mod.Engine() != eng {
			t.Fatal("module did not adopt the shared engine")
		}
		mod.DependencyGet()
		if err := mod.AffinityCompute(); err != nil {
			t.Fatal(err)
		}
		if err := mod.AffinitySet(); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want the second phase served from cache", st)
	}
}

func TestAttachTopologyEngineMismatch(t *testing.T) {
	eng, err := placement.NewEngine(topology.Fig2Machine())
	if err != nil {
		t.Fatal(err)
	}
	prog := orwlMustPipeline(t, 2)
	if _, err := Attach(prog, topology.TinyFlat(), WithEngine(eng)); err == nil {
		t.Error("accepted a topology different from the shared engine's")
	}
	// The engine's own machine (same structure, fresh pointer) is fine.
	if _, err := Attach(prog, topology.Fig2Machine(), WithEngine(eng)); err != nil {
		t.Errorf("rejected the engine's own machine: %v", err)
	}
}

// TestRenderMappingCorelessTopology pins the fix for the nil
// dereference on PUs without a Core ancestor: a degenerate
// machine-of-PUs tree renders per-PU lines instead of crashing.
func TestRenderMappingCorelessTopology(t *testing.T) {
	root := &topology.Object{Type: topology.Machine}
	for i := 0; i < 4; i++ {
		root.Children = append(root.Children, &topology.Object{Type: topology.PU, OSIndex: i})
	}
	top, err := topology.New(root, topology.Attrs{Name: "coreless"})
	if err != nil {
		t.Fatal(err)
	}
	mapping := &treematch.Mapping{
		Top:       top,
		ComputePU: []int{2, 0},
		ControlPU: []int{-1, -1},
	}
	out := RenderMapping(mapping, []string{"a", "b"})
	for _, want := range []string{"coreless", "pu", "0:a", "1:b"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
