package core

import (
	"slices"
	"strings"
	"testing"

	"orwlplace/internal/orwl"
	"orwlplace/internal/topology"
)

// runPipelineProgram builds and schedules a 4-task ORWL pipeline with
// 100-byte locations.
func runPipelineProgram(t *testing.T, prog *orwl.Program) {
	t.Helper()
	err := prog.Run(func(ctx *orwl.TaskContext) error {
		if err := ctx.Scale("main", 100); err != nil {
			return err
		}
		here := orwl.NewHandle()
		if err := ctx.WriteInsert(here, orwl.Loc(ctx.TID(), "main"), ctx.TID()); err != nil {
			return err
		}
		if ctx.TID() > 0 {
			there := orwl.NewHandle()
			if err := ctx.ReadInsert(there, orwl.Loc(ctx.TID()-1, "main"), ctx.TID()); err != nil {
				return err
			}
		}
		return ctx.Schedule()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAttachValidation(t *testing.T) {
	if _, err := Attach(nil, topology.TinyFlat()); err == nil {
		t.Error("accepted nil program")
	}
	if _, err := Attach(orwl.MustProgram(1, "m"), nil); err == nil {
		t.Error("accepted nil topology")
	}
}

// TestDependencyGetErrorPath: a program with nothing to extract must
// fail DependencyGet, not crash the automatic hook or place on an
// all-zero matrix.
func TestDependencyGetErrorPath(t *testing.T) {
	mod, err := Attach(orwl.MustProgram(2, "x"), topology.Fig2Machine())
	if err != nil {
		t.Fatal(err)
	}
	if err := mod.DependencyGet(); err == nil {
		t.Error("DependencyGet on a program without handle insertions succeeded")
	}
}

func TestEnabledByEnv(t *testing.T) {
	for _, c := range []struct {
		val  string
		want bool
	}{{"1", true}, {"true", true}, {"YES", true}, {"0", false}, {"", false}, {"no", false}} {
		t.Setenv(EnvVar, c.val)
		if got := EnabledByEnv(); got != c.want {
			t.Errorf("ORWL_AFFINITY=%q: enabled = %v, want %v", c.val, got, c.want)
		}
	}
}

func TestManualThreeStepAPI(t *testing.T) {
	prog := orwl.MustProgram(4, "main")
	mod, err := Attach(prog, topology.TinyFlat())
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-order calls fail cleanly.
	if err := mod.AffinityCompute(); err == nil {
		t.Error("AffinityCompute before DependencyGet accepted")
	}
	if err := mod.AffinitySet(); err == nil {
		t.Error("AffinitySet before AffinityCompute accepted")
	}

	runPipelineProgram(t, prog)

	mod.DependencyGet()
	m := mod.Matrix()
	if m == nil || m.Order() != 4 {
		t.Fatalf("matrix = %v", m)
	}
	if m.At(0, 1) != 100 {
		t.Errorf("volume 0->1 = %g, want 100", m.At(0, 1))
	}
	if err := mod.AffinityCompute(); err != nil {
		t.Fatal(err)
	}
	if mod.Mapping() == nil {
		t.Fatal("no mapping after compute")
	}
	if err := mod.AffinitySet(); err != nil {
		t.Fatal(err)
	}
	b := prog.Binding()
	if len(b) != 4 {
		t.Fatalf("binding = %v", b)
	}
	seen := map[int]bool{}
	for task, pu := range b {
		if pu < 0 || pu >= topology.TinyFlat().NumPUs() {
			t.Errorf("task %d bound to invalid PU %d", task, pu)
		}
		if seen[pu] {
			t.Error("two tasks bound to one PU")
		}
		seen[pu] = true
	}
}

func TestDependencyGetResetsMapping(t *testing.T) {
	prog := orwl.MustProgram(2, "main")
	mod, err := Attach(prog, topology.TinyFlat())
	if err != nil {
		t.Fatal(err)
	}
	runPipelineProgram2(t, prog)
	mod.DependencyGet()
	if err := mod.AffinityCompute(); err != nil {
		t.Fatal(err)
	}
	mod.DependencyGet() // dynamic re-computation path
	if err := mod.AffinitySet(); err == nil {
		t.Error("AffinitySet should fail after DependencyGet invalidated the mapping")
	}
}

func runPipelineProgram2(t *testing.T, prog *orwl.Program) {
	t.Helper()
	err := prog.Run(func(ctx *orwl.TaskContext) error {
		if err := ctx.Scale("main", 64); err != nil {
			return err
		}
		h := orwl.NewHandle()
		if err := ctx.WriteInsert(h, orwl.Loc(ctx.TID(), "main"), ctx.TID()); err != nil {
			return err
		}
		if ctx.TID() > 0 {
			r := orwl.NewHandle()
			if err := ctx.ReadInsert(r, orwl.Loc(0, "main"), ctx.TID()); err != nil {
				return err
			}
		}
		return ctx.Schedule()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEnableAutomaticViaEnv(t *testing.T) {
	t.Setenv(EnvVar, "1")
	prog := orwl.MustProgram(4, "main")
	mod, active, err := EnableAutomatic(prog, topology.TinyFlat(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !active {
		t.Fatal("automatic mode should be active with ORWL_AFFINITY=1")
	}
	runPipelineProgram(t, prog)
	if prog.Binding() == nil {
		t.Error("automatic mode did not bind tasks")
	}
	if mod.Mapping() == nil {
		t.Error("automatic mode left no mapping")
	}
}

func TestEnableAutomaticDisabledWithoutEnv(t *testing.T) {
	t.Setenv(EnvVar, "")
	prog := orwl.MustProgram(4, "main")
	_, active, err := EnableAutomatic(prog, topology.TinyFlat(), false)
	if err != nil {
		t.Fatal(err)
	}
	if active {
		t.Fatal("automatic mode should be off without ORWL_AFFINITY")
	}
	runPipelineProgram(t, prog)
	if prog.Binding() != nil {
		t.Error("bindings applied although affinity was off")
	}
}

func TestEnableAutomaticForced(t *testing.T) {
	t.Setenv(EnvVar, "")
	prog := orwl.MustProgram(4, "main")
	mod, active, err := EnableAutomatic(prog, topology.TinyHT(), true)
	if err != nil {
		t.Fatal(err)
	}
	if !active {
		t.Fatal("forced automatic mode should be active")
	}
	runPipelineProgram(t, prog)
	b := prog.Binding()
	if len(b) != 4 {
		t.Fatalf("binding = %v", b)
	}
	// On the hyperthreaded machine control threads land on siblings.
	if cpu := mod.Assignment().ControlPU; len(cpu) != 4 || slices.Contains(cpu, -1) {
		t.Fatalf("control PUs = %v", cpu)
	}
}

func TestEnableAutomaticValidation(t *testing.T) {
	if _, _, err := EnableAutomatic(nil, topology.TinyFlat(), true); err == nil {
		t.Error("accepted nil program")
	}
}

func TestRenderMapping(t *testing.T) {
	prog := orwl.MustProgram(4, "main")
	mod, _, err := EnableAutomatic(prog, topology.Fig2Machine(), true)
	if err != nil {
		t.Fatal(err)
	}
	runPipelineProgram(t, prog)
	out := RenderMapping(mod.Mapping(), []string{"producer", "gmm", "ccl", "consumer"})
	for _, want := range []string{"Fig2-4socket", "producer", "3:consumer", "core"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if got := RenderMapping(nil, nil); !strings.Contains(got, "no mapping") {
		t.Errorf("nil mapping render = %q", got)
	}
}
