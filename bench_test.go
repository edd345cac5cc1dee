package orwlplace_test

// Benchmark harness: one target per table and figure of the paper
// (regenerating the artifact end to end), plus ablation benches for the
// design choices called out in DESIGN.md §5 and micro-benchmarks of the
// live runtime. Run with
//
//	go test -bench=. -benchmem
//
// The Fig/Table benches report the modeled quantities (seconds of the
// simulated run, GFLOPS, FPS) as custom metrics so a bench run doubles
// as a reproduction log.

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"

	"orwlplace"
	"orwlplace/internal/apps/livermore"
	"orwlplace/internal/apps/matmul"
	"orwlplace/internal/apps/tracking"
	"orwlplace/internal/comm"
	"orwlplace/internal/ctrlplane"
	"orwlplace/internal/experiments"
	"orwlplace/internal/orwl"
	"orwlplace/internal/orwlnet"
	"orwlplace/internal/perfsim"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
	"orwlplace/internal/treematch"
)

// --- Paper artifacts -------------------------------------------------

func BenchmarkFig1CommMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2Mapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIMachines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.TableI() == nil {
			b.Fatal("no table")
		}
	}
}

func benchFigure(b *testing.B, gen func(*topology.Topology) (*experiments.Figure, error)) {
	for _, top := range experiments.Machines() {
		top := top
		b.Run(top.Attrs.Name, func(b *testing.B) {
			var fig *experiments.Figure
			var err error
			for i := 0; i < b.N; i++ {
				fig, err = gen(top)
				if err != nil {
					b.Fatal(err)
				}
			}
			// Report the last tick of the first and second series (the
			// native vs affinity endpoints).
			if len(fig.Series) >= 2 && len(fig.Series[0].Y) > 0 {
				last := len(fig.Series[0].Y) - 1
				b.ReportMetric(fig.Series[0].Y[last], "native")
				b.ReportMetric(fig.Series[1].Y[last], "affinity")
			}
		})
	}
}

func BenchmarkFig4Livermore(b *testing.B) { benchFigure(b, experiments.Fig4) }
func BenchmarkFig5Matmul(b *testing.B)    { benchFigure(b, experiments.Fig5) }
func BenchmarkFig6Tracking(b *testing.B)  { benchFigure(b, experiments.Fig6) }

func BenchmarkTableIICounters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIIICounters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIII(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIVCounters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIV(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ----------------------------------------

// Control-thread accounting on/off on the hyperthreaded machine: the
// modeled run time of the K23 workload under both mappings.
func BenchmarkAblationControlThreads(b *testing.B) {
	top := topology.SMP12E5()
	w, err := livermore.Profile(16384, 64, 100)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		ctl  bool
	}{{"with-control", true}, {"without-control", false}} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			var seconds float64
			for i := 0; i < b.N; i++ {
				mp, err := treematch.Map(top, w.Comm, treematch.Options{ControlThreads: cfg.ctl})
				if err != nil {
					b.Fatal(err)
				}
				res, err := perfsim.Simulate(top, w, &perfsim.Placement{
					ComputePU: mp.ComputePU, ControlPU: mp.ControlPU, LocalAlloc: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				seconds = res.Seconds
			}
			b.ReportMetric(seconds, "modeled-s")
		})
	}
}

// Oversubscription: the added virtual tree level vs a naive modulo fold
// of entities onto cores.
func BenchmarkAblationOversubscription(b *testing.B) {
	top := topology.TinyFlat()
	m := comm.Clustered(16, 8, 1000, 1)
	b.Run("treematch-virtual-level", func(b *testing.B) {
		var cost float64
		for i := 0; i < b.N; i++ {
			mp, err := treematch.Map(top, m, treematch.Options{})
			if err != nil {
				b.Fatal(err)
			}
			cost, err = treematch.Cost(top, m, mp.ComputePU)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(cost, "cost")
	})
	b.Run("modulo-fold", func(b *testing.B) {
		var cost float64
		pus := top.PUs()
		place := make([]int, 16)
		for e := range place {
			place[e] = pus[e%len(pus)].LogicalIndex
		}
		for i := 0; i < b.N; i++ {
			var err error
			cost, err = treematch.Cost(top, m, place)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(cost, "cost")
	})
}

// TreeMatch vs the oblivious strategies on the canonical patterns.
func BenchmarkAblationStrategies(b *testing.B) {
	top := topology.SMP12E5()
	patterns := map[string]*comm.Matrix{
		"stencil":   comm.Stencil2D(8, 8, 1<<14, 1<<14),
		"ring":      comm.Ring(64, 1<<20, true),
		"dfg":       mustCommMatrix(b),
		"clustered": comm.Clustered(64, 8, 1<<20, 1<<10),
	}
	for name, m := range patterns {
		name, m := name, m
		b.Run("treematch/"+name, func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				mp, err := treematch.Map(top, m, treematch.Options{ControlThreads: true})
				if err != nil {
					b.Fatal(err)
				}
				cost, err = treematch.Cost(top, m, mp.ComputePU)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(cost, "cost")
		})
		for _, s := range []treematch.Strategy{treematch.StrategyCompactCores, treematch.StrategyScatter} {
			s := s
			b.Run(s.String()+"/"+name, func(b *testing.B) {
				var cost float64
				for i := 0; i < b.N; i++ {
					pl, err := treematch.Place(top, m.Order(), s)
					if err != nil {
						b.Fatal(err)
					}
					cost, err = treematch.Cost(top, m, pl)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(cost, "cost")
			})
		}
	}
}

func mustCommMatrix(b *testing.B) *comm.Matrix {
	b.Helper()
	m, err := tracking.PaperConfig(tracking.HD).CommMatrix()
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// --- Live runtime micro-benchmarks -----------------------------------

// One iterative grant/release round trip between two tasks.
func BenchmarkLocationHandoff(b *testing.B) {
	p := orwl.MustProgram(2, "ping")
	done := make(chan error, 2)
	iters := b.N
	b.ResetTimer()
	go func() {
		done <- p.Run(func(ctx *orwl.TaskContext) error {
			h := orwl.NewHandle2()
			if err := ctx.WriteInsert(h, orwl.Loc(0, "ping"), ctx.TID()); err != nil {
				return err
			}
			if err := ctx.Schedule(); err != nil {
				return err
			}
			for i := 0; i < iters; i++ {
				if err := h.Section(func([]byte) error { return nil }); err != nil {
					return err
				}
			}
			return nil
		})
	}()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// One remote grant/read/release round trip over loopback TCP.
func BenchmarkRemoteLocationRoundTrip(b *testing.B) {
	prog := orwl.MustProgram(1, "data")
	loc := prog.Location(orwl.Loc(0, "data"))
	loc.Scale(64)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := orwlnet.NewServer(lis, map[string]*orwl.Location{"data": loc})
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	c, err := orwlnet.Dial(lis.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := c.Insert("data", orwl.Write)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Acquire(); err != nil {
			b.Fatal(err)
		}
		if err := h.Write([]byte{byte(i)}); err != nil {
			b.Fatal(err)
		}
		if err := h.Release(); err != nil {
			b.Fatal(err)
		}
	}
}

// Real ORWL executions of the three applications at test scale.
func BenchmarkLivermoreORWL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := livermore.NewGrid(258, 258, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := livermore.RunORWL(g, 4, 2, 10, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLivermoreForkJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := livermore.NewGrid(258, 258, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := livermore.RunForkJoin(g, 4, 2, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatmulORWL(b *testing.B) {
	a, _ := matmul.NewRandomMatrix(256, 1)
	bm, _ := matmul.NewRandomMatrix(256, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ := matmul.NewMatrix(256)
		if _, err := matmul.RunORWL(a, bm, c, 4, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatmulForkJoin(b *testing.B) {
	a, _ := matmul.NewRandomMatrix(256, 1)
	bm, _ := matmul.NewRandomMatrix(256, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ := matmul.NewMatrix(256)
		if err := matmul.RunForkJoin(a, bm, c, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrackingDFG(b *testing.B) {
	cfg := tracking.Config{
		Size: tracking.Size{W: 160, H: 96}, GMMSplits: 4, CCLSplits: 2,
		Dilates: 2, MinArea: 16, MaxDist: 32, Objects: 3, Seed: 7,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tracking.RunORWL(cfg, 8, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrackingSerial(b *testing.B) {
	cfg := tracking.Config{
		Size: tracking.Size{W: 160, H: 96}, GMMSplits: 4, CCLSplits: 2,
		Dilates: 2, MinArea: 16, MaxDist: 32, Objects: 3, Seed: 7,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tracking.RunSerial(cfg, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// TreeMatch end-to-end mapping cost at machine scale.
func BenchmarkTreeMatchMap(b *testing.B) {
	for _, size := range []struct {
		name string
		m    *comm.Matrix
		top  *topology.Topology
	}{
		{"30tasks-32cores", mustCommMatrixB(b), topology.Fig2Machine()},
		{"64tasks-96cores", comm.Stencil2D(8, 8, 1<<14, 1<<14), topology.SMP12E5()},
		{"160tasks-160cores", comm.Ring(160, 1<<20, true), topology.SMP20E7()},
	} {
		size := size
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := treematch.Map(size.top, size.m, treematch.Options{ControlThreads: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The sparse partitioned path: 10k tasks in a ring of clusters
	// (O(n) nonzeros), oversubscribed ~10x onto the 1024-core Fleet1K.
	// No dense n² slab exists anywhere on this path — the acceptance
	// bar is single-digit milliseconds per mapping.
	b.Run("10ktasks-1kcores", func(b *testing.B) {
		top := topology.Fleet1K()
		s := comm.RingOfClusters(250, 40, 1<<20, 1<<12) // 10000 tasks
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := treematch.MapAffinity(top, s, treematch.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func mustCommMatrixB(b *testing.B) *comm.Matrix {
	b.Helper()
	m, err := tracking.PaperConfig(tracking.HD).CommMatrix()
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// Simulator throughput.
func BenchmarkPerfsimSimulate(b *testing.B) {
	top := topology.SMP12E5()
	w, err := livermore.Profile(16384, 96, 100)
	if err != nil {
		b.Fatal(err)
	}
	mp, err := treematch.Map(top, w.Comm, treematch.Options{ControlThreads: true})
	if err != nil {
		b.Fatal(err)
	}
	pl := &perfsim.Placement{ComputePU: mp.ComputePU, ControlPU: mp.ControlPU, LocalAlloc: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perfsim.Simulate(top, w, pl); err != nil {
			b.Fatal(err)
		}
	}
}

// --- The fleet report seam ---------------------------------------------

// fleetRig leases one tasks-task program per peer, on disjoint task
// ranges of machine, from an in-process daemon (a control plane behind
// loopback TCP). record(shift) records one window of neighbour traffic
// in every program: each task exchanges with degree others, 2·degree
// nonzeros a row — its successors at stride 1, or at stride 3+shift, so
// changing shift is a traffic shift and repeating it is a steady window.
func fleetRig(tb testing.TB, machine string, top *topology.Topology, peers, tasks, degree int) (ctrl *ctrlplane.Controller, fas []*orwlplace.FleetAdaptive, record func(shift int)) {
	tb.Helper()
	fleet := placement.NewMultiService()
	if err := fleet.AddMachine(machine, top); err != nil {
		tb.Fatal(err)
	}
	// A horizon long enough for a remap to pay off, as the benchmark's
	// fleet workloads configure it.
	ctrl, err := ctrlplane.NewController(fleet, ctrlplane.Config{Adaptive: placement.AdaptiveConfig{Horizon: 500}, StaleAfter: -1})
	if err != nil {
		tb.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := orwlnet.NewServer(lis, nil, orwlnet.WithPlacement(fleet), orwlnet.WithControlPlane(ctrl))
	if err != nil {
		tb.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve() // returns once Close shuts the listener
	}()
	ctx := context.Background()
	rs, err := orwlplace.DialPlacement(ctx, lis.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		rs.Close()
		srv.Close()
		<-served
	})
	progs := make([]*orwl.Program, peers)
	for p := range progs {
		progs[p] = orwl.MustProgram(tasks)
		fa, err := orwlplace.NewFleetAdaptive(ctx, rs, progs[p], orwlplace.FleetAdaptiveConfig{
			Peer: fmt.Sprintf("bench-%d", p), TaskBase: p * tasks,
		})
		if err != nil {
			tb.Fatal(err)
		}
		fas = append(fas, fa)
	}
	return ctrl, fas, func(shift int) {
		stride := 1
		if shift > 0 {
			stride = 3 + shift
		}
		for _, prog := range progs {
			tr := prog.Traffic()
			for i := 0; i < tasks; i++ {
				for k := 1; k <= degree; k++ {
					j := (i + k*stride) % tasks
					tr.Record(i, j, 1<<16)
					tr.Record(j, i, 1<<12)
				}
			}
		}
	}
}

// fleetReportRig is fleetRig for the report seam alone: one program on
// fleet1k, one steady pattern of 14 nonzeros a row.
func fleetReportRig(tb testing.TB, tasks int) (*orwlplace.FleetAdaptive, func()) {
	tb.Helper()
	_, fas, record := fleetRig(tb, "fleet1k", topology.Fleet1K(), 1, tasks, 7)
	return fas[0], func() { record(0) }
}

// BenchmarkFleetReport1024 is one FleetAdaptive.Report of a 1024-task
// program's 14k-nonzero window: snapshot, encode, loopback, decode and
// collector merge.
func BenchmarkFleetReport1024(b *testing.B) {
	fa, record := fleetReportRig(b, 1024)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		record()
		b.StartTimer()
		if err := fa.Report(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFleetReport1024StaysSparse is the n² tripwire on the report path:
// client and daemon together allocate under 2 MB for one 1024-task
// report (it was about 16 MB while the window crossed as a dense
// matrix, which is 8 MB a copy), so a Dense() sneaking back in fails
// here and not only in the benchmark.
func TestFleetReport1024StaysSparse(t *testing.T) {
	fa, record := fleetReportRig(t, 1024)
	ctx := context.Background()
	report := func() uint64 {
		record()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := fa.Report(ctx); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	report() // sizes the pooled buffers and the window baseline
	if got := report(); got >= 2<<20 {
		t.Fatalf("one 1024-task report allocated %d bytes, want < 2 MiB", got)
	} else {
		t.Logf("one 1024-task report allocated %d KiB", got>>10)
	}
}

// --- The dense fleet cycle ------------------------------------------------

// fleetCycleDense160 sets up the dense fleet loop — 2 peers x 80 tasks
// on smp20e7, 320 nonzeros a report — adopts the priming epoch and
// returns one cycle: record the given pattern, both peers Report,
// Controller.Epoch.
func fleetCycleDense160(tb testing.TB) func(shift int) *placement.EpochReport {
	tb.Helper()
	ctrl, fas, record := fleetRig(tb, "smp20e7", topology.SMP20E7(), 2, 80, 2)
	ctx := context.Background()
	cycle := func(shift int) *placement.EpochReport {
		record(shift)
		for _, fa := range fas {
			if err := fa.Report(ctx); err != nil {
				tb.Fatal(err)
			}
		}
		rep, err := ctrl.Epoch("smp20e7")
		if err != nil || rep == nil {
			tb.Fatalf("epoch = (%v, %v)", rep, err)
		}
		return rep
	}
	if rep := cycle(0); !rep.Adopted {
		tb.Fatal("priming epoch was not adopted")
	}
	return cycle
}

// BenchmarkFleetCycleDense160 alternates shift and steady cycles of the
// dense fleet loop, the benchmark's fleet-shift-160 without its output
// checks: what a cycle costs and allocates between the peers' counters
// and the controller's decision.
func BenchmarkFleetCycleDense160(b *testing.B) {
	cycle := fleetCycleDense160(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(1 + i/2%2) // shift, steady, shift back, steady, ...
	}
}

// TestFleetSteadyCycleDense160AllocatesNoMatrix is the n² tripwire on
// the dense loop: after warm-up a steady cycle — two reports, merge,
// drain, drift against the cached baseline, window handed back —
// allocates under 64 KB process-wide, less than a third of one 160²
// matrix (205 KB; it was about 800 KB), so a Symmetrized(), Dense() or
// NewMatrix coming back onto this path fails here and not only in the
// benchmark.
func TestFleetSteadyCycleDense160AllocatesNoMatrix(t *testing.T) {
	cycle := fleetCycleDense160(t)
	if rep := cycle(1); !rep.Adopted {
		t.Fatalf("shift cycle was not adopted: %+v", rep)
	}
	cycle(1) // sizes the drift scratch and rotates the spare in
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep := cycle(1)
	runtime.ReadMemStats(&after)
	if rep.Adopted || rep.Drift > 1e-9 {
		t.Fatalf("steady cycle measured drift %g, adopted=%v", rep.Drift, rep.Adopted)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("one steady 160-task cycle allocated %d bytes, want < 64 KiB", got)
	} else {
		t.Logf("one steady 160-task cycle allocated %d KiB", got>>10)
	}
}
