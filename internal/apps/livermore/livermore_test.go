package livermore

import (
	"testing"

	"orwlplace/internal/topology"
)

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(2, 10, 1); err == nil {
		t.Error("accepted tiny grid")
	}
	if _, err := NewGrid(10, 2, 1); err == nil {
		t.Error("accepted tiny grid")
	}
	g, err := NewGrid(8, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Za) != 64 || len(g.Zz) != 64 {
		t.Error("planes not allocated")
	}
}

func TestGridDeterministicBySeed(t *testing.T) {
	a, _ := NewGrid(8, 8, 7)
	b, _ := NewGrid(8, 8, 7)
	c, _ := NewGrid(8, 8, 8)
	d, _ := MaxAbsDiff(a, b)
	if d != 0 {
		t.Error("same seed differs")
	}
	d, _ = MaxAbsDiff(a, c)
	if d == 0 {
		t.Error("different seeds identical")
	}
}

func TestSerialChangesInteriorOnly(t *testing.T) {
	g, _ := NewGrid(8, 8, 1)
	orig := g.Clone()
	g.Serial(3)
	// Boundary rows/cols unchanged.
	for k := 0; k < g.N; k++ {
		if g.Za[k] != orig.Za[k] || g.Za[(g.M-1)*g.N+k] != orig.Za[(g.M-1)*g.N+k] {
			t.Fatal("boundary rows changed")
		}
	}
	for j := 0; j < g.M; j++ {
		if g.Za[j*g.N] != orig.Za[j*g.N] || g.Za[j*g.N+g.N-1] != orig.Za[j*g.N+g.N-1] {
			t.Fatal("boundary cols changed")
		}
	}
	d, _ := MaxAbsDiff(g, orig)
	if d == 0 {
		t.Error("interior did not change")
	}
}

func TestMaxAbsDiffShapeMismatch(t *testing.T) {
	a, _ := NewGrid(8, 8, 1)
	b, _ := NewGrid(8, 9, 1)
	if _, err := MaxAbsDiff(a, b); err == nil {
		t.Error("accepted shape mismatch")
	}
}

func TestMakeBlocksPartition(t *testing.T) {
	blocks, err := makeBlocks(18, 18, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 8 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	// Cover the interior exactly once.
	covered := make(map[[2]int]int)
	for _, b := range blocks {
		for r := b.r0; r < b.r1; r++ {
			for c := b.c0; c < b.c1; c++ {
				covered[[2]int{r, c}]++
			}
		}
	}
	if len(covered) != 16*16 {
		t.Errorf("covered %d cells, want %d", len(covered), 16*16)
	}
	for cell, n := range covered {
		if n != 1 {
			t.Fatalf("cell %v covered %d times", cell, n)
		}
	}
	if _, err := makeBlocks(10, 10, 0, 1); err == nil {
		t.Error("accepted zero block grid")
	}
	if _, err := makeBlocks(10, 10, 20, 1); err == nil {
		t.Error("accepted over-fine block grid")
	}
}

func TestGridDims(t *testing.T) {
	cases := []struct{ blocks, gx, gy int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {8, 4, 2}, {16, 4, 4}, {24, 6, 4}, {0, 1, 1},
	}
	for _, c := range cases {
		gx, gy := GridDims(c.blocks)
		if gx != c.gx || gy != c.gy {
			t.Errorf("GridDims(%d) = %dx%d, want %dx%d", c.blocks, gx, gy, c.gx, c.gy)
		}
	}
}

func TestForkJoinMatchesSerialBitwise(t *testing.T) {
	for _, cfg := range []struct{ m, n, gx, gy, loops int }{
		{10, 10, 2, 2, 1},
		{18, 14, 3, 2, 5},
		{33, 29, 4, 3, 7},
	} {
		ref, _ := NewGrid(cfg.m, cfg.n, 5)
		par := ref.Clone()
		ref.Serial(cfg.loops)
		if err := RunForkJoin(par, cfg.gx, cfg.gy, cfg.loops); err != nil {
			t.Fatal(err)
		}
		d, err := MaxAbsDiff(ref, par)
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Errorf("%+v: fork-join differs from serial by %g", cfg, d)
		}
	}
}

func TestORWLMatchesSerialBitwise(t *testing.T) {
	for _, cfg := range []struct{ m, n, gx, gy, loops int }{
		{10, 10, 1, 1, 3},
		{10, 10, 2, 2, 1},
		{18, 14, 3, 2, 5},
		{33, 29, 4, 3, 7},
		{20, 20, 1, 4, 4},
		{20, 20, 4, 1, 4},
	} {
		ref, _ := NewGrid(cfg.m, cfg.n, 9)
		par := ref.Clone()
		ref.Serial(cfg.loops)
		if _, err := RunORWL(par, cfg.gx, cfg.gy, cfg.loops, nil); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		d, err := MaxAbsDiff(ref, par)
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Errorf("%+v: ORWL differs from serial by %g", cfg, d)
		}
	}
}

func TestORWLZeroLoopsIsIdentity(t *testing.T) {
	g, _ := NewGrid(12, 12, 3)
	orig := g.Clone()
	if _, err := RunORWL(g, 2, 2, 0, nil); err != nil {
		t.Fatal(err)
	}
	d, _ := MaxAbsDiff(g, orig)
	if d != 0 {
		t.Error("zero loops changed the grid")
	}
	if _, err := RunORWL(g, 2, 2, -1, nil); err == nil {
		t.Error("accepted negative loops")
	}
	if err := RunForkJoin(g, 2, 2, -1); err == nil {
		t.Error("fork-join accepted negative loops")
	}
}

func TestORWLWithAffinityBindsTasks(t *testing.T) {
	g, _ := NewGrid(18, 18, 2)
	ref := g.Clone()
	ref.Serial(4)
	res, err := RunORWL(g, 2, 2, 4, topology.TinyFlat())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := MaxAbsDiff(ref, g)
	if d != 0 {
		t.Errorf("affinity run changed results by %g", d)
	}
	if res.Module == nil || res.Module.Mapping() == nil {
		t.Fatal("affinity module inactive")
	}
	if got := len(res.Program.Binding()); got != 4 {
		t.Errorf("bound %d tasks, want 4", got)
	}
	// The dependency matrix must reflect the 2x2 stencil: adjacent
	// blocks communicate, diagonal ones do not.
	m := res.Module.Matrix()
	if m.At(0, 1)+m.At(1, 0) == 0 || m.At(0, 2)+m.At(2, 0) == 0 {
		t.Error("missing neighbour dependencies")
	}
	if m.At(0, 3)+m.At(3, 0) != 0 {
		t.Error("diagonal blocks should not communicate")
	}
}

func TestProfileShape(t *testing.T) {
	w, err := Profile(16384, 64, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Threads) != 64 {
		t.Fatalf("threads = %d, want 64", len(w.Threads))
	}
	if w.ControlThreads == 0 || w.ControlEventsPerIter == 0 {
		t.Error("ORWL profile should have control threads")
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Central threads are heavier than border threads.
	if w.Threads[0].ComputeCycles <= w.Threads[1].ComputeCycles {
		t.Error("central thread should dominate")
	}
	// Intra-block affinity dominates cross-block volumes.
	if w.Comm.At(0, 1) <= w.Comm.At(1, 5) {
		t.Error("intra-block volume should dominate")
	}

	small, err := Profile(1024, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Threads) != 1 {
		t.Errorf("1-core profile threads = %d", len(small.Threads))
	}
	if _, err := Profile(2, 1, 1); err == nil {
		t.Error("accepted tiny matrix")
	}
	if _, err := Profile(1024, 0, 1); err == nil {
		t.Error("accepted zero cores")
	}
}

func TestProfileOpenMPShape(t *testing.T) {
	omp, err := ProfileOpenMP(16384, 64, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := omp.Validate(); err != nil {
		t.Fatal(err)
	}
	if omp.ControlThreads != 0 {
		t.Error("fork-join profile should have no ORWL control threads")
	}
	if len(omp.Threads) != 64 {
		t.Errorf("threads = %d", len(omp.Threads))
	}
	// 1-D full-width chunks stream za three times; the 2-D ORWL blocks
	// of the same run are tiled and stream it once, so the per-sweep
	// traffic across all threads is larger for OpenMP.
	orwl, err := Profile(16384, 64, 100)
	if err != nil {
		t.Fatal(err)
	}
	var ompTraffic, orwlTraffic float64
	for _, th := range omp.Threads {
		ompTraffic += th.MemoryTraffic
	}
	for _, th := range orwl.Threads {
		orwlTraffic += th.MemoryTraffic
	}
	if ompTraffic <= orwlTraffic {
		t.Errorf("OpenMP traffic %g should exceed tiled ORWL traffic %g", ompTraffic, orwlTraffic)
	}
	if _, err := ProfileOpenMP(2, 1, 1); err == nil {
		t.Error("accepted tiny matrix")
	}
}
