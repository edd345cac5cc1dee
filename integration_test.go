package orwlplace_test

// Cross-package integration tests: the end-to-end paths a user of the
// library follows, wired exactly like the README and the paper's
// usage story.

import (
	"net"
	"strings"
	"testing"

	"orwlplace/internal/apps/tracking"
	"orwlplace/internal/core"
	"orwlplace/internal/experiments"
	"orwlplace/internal/orwl"
	"orwlplace/internal/orwlnet"
	"orwlplace/internal/perfsim"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// TestAutomaticModeEndToEnd is the paper's promise: an unmodified ORWL
// program, ORWL_AFFINITY=1 in the environment, and the runtime computes
// and applies the binding at the schedule barrier.
func TestAutomaticModeEndToEnd(t *testing.T) {
	t.Setenv(core.EnvVar, "1")
	prog := orwl.MustProgram(6, "main_loc")
	mod, active, err := core.EnableAutomatic(prog, topology.Fig2Machine(), false)
	if err != nil {
		t.Fatal(err)
	}
	if !active {
		t.Fatal("ORWL_AFFINITY=1 did not activate the module")
	}
	err = prog.Run(func(ctx *orwl.TaskContext) error {
		if err := ctx.Scale("main_loc", 4096); err != nil {
			return err
		}
		here := orwl.NewHandle()
		if err := ctx.WriteInsert(here, orwl.Loc(ctx.TID(), "main_loc"), ctx.TID()); err != nil {
			return err
		}
		if ctx.TID() > 0 {
			there := orwl.NewHandle()
			if err := ctx.ReadInsert(there, orwl.Loc(ctx.TID()-1, "main_loc"), ctx.TID()); err != nil {
				return err
			}
		}
		if err := ctx.Schedule(); err != nil {
			return err
		}
		// The binding exists by now; apply it to the live thread (a
		// no-op off Linux and for unbound tasks).
		release, err := ctx.BindSelf()
		if err != nil {
			return err
		}
		defer release()
		return here.Section(func(buf []byte) error {
			buf[0] = byte(ctx.TID())
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Binding()) != 6 {
		t.Errorf("binding = %v", prog.Binding())
	}
	// The mapping render names the tasks and the machine.
	out := core.RenderMapping(mod.Mapping(), nil)
	if !strings.Contains(out, "Fig2-4socket") {
		t.Errorf("render = %q", out)
	}
}

// TestMappingFeedsSimulator closes the loop the experiments take: a
// real program's extracted matrix, mapped by TreeMatch, evaluated by
// perfsim — affinity must beat the simulated OS scheduler.
func TestMappingFeedsSimulator(t *testing.T) {
	cfg := tracking.PaperConfig(tracking.HD)
	top := topology.SMP12E5()
	w, err := cfg.Profile(100)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := treematch.Map(top, w.Comm, treematch.Options{ControlThreads: true})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := perfsim.Simulate(top, w, &perfsim.Placement{
		ComputePU: mp.ComputePU, ControlPU: mp.ControlPU, LocalAlloc: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := perfsim.Simulate(top, w, &perfsim.Placement{
		Dynamic: &perfsim.DynamicPolicy{Policy: perfsim.PolicyFor(top), Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bound.Seconds >= dyn.Seconds {
		t.Errorf("affinity %gs not faster than dynamic %gs", bound.Seconds, dyn.Seconds)
	}
	if bound.CPUMigrations != 0 {
		t.Error("bound run migrated")
	}
}

// TestLocalTaskFeedsRemoteReader shares one live program location over
// TCP while the owning task iterates on it locally.
func TestLocalTaskFeedsRemoteReader(t *testing.T) {
	const rounds = 5
	prog := orwl.MustProgram(1, "feed")
	loc := prog.Location(orwl.Loc(0, "feed"))
	loc.Scale(8)

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := orwlnet.NewServer(lis, map[string]*orwl.Location{"feed": loc})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()

	// FIFO startup order: the local writer queues first (so the reader
	// sees round 0), and the writer only starts iterating once the
	// reader's request is queued (otherwise it would lap the reader,
	// since an absent reader never blocks the alternation).
	writerQueued := make(chan struct{})
	readerQueued := make(chan struct{})
	readerDone := make(chan error, 1)
	go func() {
		readerDone <- func() error {
			<-writerQueued
			c, err := orwlnet.Dial(lis.Addr().String())
			if err != nil {
				return err
			}
			defer c.Close()
			h, err := c.Insert("feed", orwl.Read)
			if err != nil {
				return err
			}
			close(readerQueued)
			for r := 0; r < rounds; r++ {
				if err := h.Section(true, func(h *orwlnet.RemoteHandle) error {
					data, err := h.Read()
					if err != nil {
						return err
					}
					if int(data[0]) != r {
						t.Errorf("round %d: read %d", r, data[0])
					}
					return nil
				}); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	err = prog.Run(func(ctx *orwl.TaskContext) error {
		h := orwl.NewHandle2()
		if err := ctx.WriteInsert(h, orwl.Loc(0, "feed"), 0); err != nil {
			return err
		}
		if err := ctx.Schedule(); err != nil {
			return err
		}
		close(writerQueued)
		<-readerQueued
		for r := 0; r < rounds; r++ {
			if err := h.Section(func(buf []byte) error {
				buf[0] = byte(r)
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
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
}

// TestArtifactRegenerationSmoke regenerates every paper artifact once —
// the cmd/experiments happy path.
func TestArtifactRegenerationSmoke(t *testing.T) {
	arts, err := experiments.All()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, a := range arts {
		ids[a.ID] = true
	}
	for _, want := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"table1", "table2", "table3", "table4"} {
		if !ids[want] {
			t.Errorf("missing artifact %q", want)
		}
	}
}
