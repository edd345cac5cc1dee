package perfsim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// simulateRef is Simulate as it was before it walked the affinity
// seam: a strided scan of the dense upper triangle, with the per-core,
// per-L3 and per-NUMA sums kept in maps keyed by object. It is the
// reference the affinity-walk Simulate is held to.
func simulateRef(top *topology.Topology, w *Workload, pl *Placement) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	n := len(w.Threads)
	attrs := top.Attrs
	clockHz := attrs.ClockMHz * 1e6

	computePU := pl.ComputePU
	remoteAllocFrac := 0.0
	if !pl.LocalAlloc || w.MasterAlloc {
		remoteAllocFrac = 0.5
	}
	trafficInflation := 1.0
	var migBytesPerIter float64 // per-thread amortized migration refill
	var migrations float64
	var preemptSwitches float64
	if pl.Dynamic != nil {
		dyn := pl.Dynamic.withDefaults()
		var err error
		computePU, err = dynamicPlacement(top, n, dyn)
		if err != nil {
			return nil, err
		}
		// Interference from the OS scheduler grows with machine load: a
		// lone unbound thread keeps its cache and node, a saturated
		// machine migrates and evicts constantly (this is why the
		// unbound curves of Fig. 4/5 only detach from the bound ones
		// beyond one or two sockets).
		load := (float64(n) + float64(w.ControlThreads)/4) / float64(top.NumCores())
		if load > 1 {
			load = 1
		}
		remoteAllocFrac = dyn.RemoteAllocFraction * load
		trafficInflation = 1 + (dyn.TrafficInflation-1)*load
		waves := float64(w.Iterations) / float64(dyn.MigrationEvery)
		allThreads := float64(n + w.ControlThreads)
		migrations = waves * allThreads * dyn.MigrationFraction * (0.2 + 0.8*load)
		preemptSwitches = migrations // every migration implies a switch
		var avgWS float64
		for _, th := range w.Threads {
			avgWS += th.WorkingSet
		}
		avgWS /= float64(n)
		migBytesPerIter = avgWS * dyn.MigrationFraction * load / float64(dyn.MigrationEvery)
	}
	if len(computePU) != n {
		return nil, fmt.Errorf("perfsim: placement for %d threads, want %d", len(computePU), n)
	}
	pus := top.PUs()
	for i, pu := range computePU {
		if pu < 0 || pu >= len(pus) {
			return nil, fmt.Errorf("perfsim: thread %d on invalid PU %d", i, pu)
		}
	}

	// Per-core compute-thread population for the contention factor.
	computeOnCore := make(map[*topology.Object]int)
	for _, pu := range computePU {
		computeOnCore[pus[pu].Parent]++
	}
	controlOnCore := make(map[*topology.Object]int)
	controlBound := false
	if len(pl.ControlPU) == n {
		for _, pu := range pl.ControlPU {
			if pu >= 0 && pu < len(pus) {
				controlOnCore[pus[pu].Parent]++
				controlBound = true
			}
		}
	}

	// Socket-level working-set occupancy for cache-capacity misses.
	l3Occupancy := make(map[*topology.Object]float64)
	l3Size := make(map[*topology.Object]float64)
	for i, th := range w.Threads {
		l3 := cacheDomain(pus[computePU[i]])
		l3Occupancy[l3] += th.WorkingSet
		if l3Size[l3] == 0 {
			l3Size[l3] = l3CapacityOf(l3)
		}
	}

	perThreadCommSec := make([]float64, n)
	perThreadStreamSec := make([]float64, n)
	perThreadStallCycles := make([]float64, n) // counter only
	var l3Misses, crossBytes float64
	// Two bandwidth channels per NUMA node: the inter-node link and the
	// local DRAM controller.
	nodeLinkBytes := make(map[*topology.Object]float64)
	nodeDRAMBytes := make(map[*topology.Object]float64)

	// Communication: latency-bound, split evenly between endpoints. A
	// pair's volume is the symmetrized one, read in place.
	dense := w.Comm.Dense()
	for i := 0; i < n; i++ {
		row := dense.RowView(i)
		for j := i + 1; j < n; j++ {
			v := row[j] + dense.At(j, i)
			if v == 0 {
				continue
			}
			lines := v / CacheLine
			pi, pj := pus[computePU[i]], pus[computePU[j]]
			var latency float64
			switch topology.LocalityOf(pi, pj) {
			case topology.SamePU, topology.SameCore, topology.SameL2:
				latency = attrs.L2LatencyCycles
			case topology.SameL3:
				latency = attrs.L3LatencyCycles
			case topology.SameNUMA:
				latency = attrs.DRAMLatencyCycles
				l3Misses += lines
				nodeDRAMBytes[numaOf(pi)] += v
			case topology.SameGroup:
				latency = attrs.DRAMLatencyCycles * attrs.RemoteNUMAFactor
				l3Misses += lines
				crossBytes += v
				nodeLinkBytes[numaOf(pi)] += v
				nodeLinkBytes[numaOf(pj)] += v
				nodeDRAMBytes[numaOf(pi)] += v
			default: // cross-group
				latency = attrs.DRAMLatencyCycles * attrs.CrossGroupFactor
				l3Misses += lines
				crossBytes += v
				nodeLinkBytes[numaOf(pi)] += v
				nodeLinkBytes[numaOf(pj)] += v
				nodeDRAMBytes[numaOf(pi)] += v
			}
			stall := lines * latency
			perThreadStallCycles[i] += stall / 2
			perThreadStallCycles[j] += stall / 2
			sec := stall / commMLP / clockHz
			perThreadCommSec[i] += sec / 2
			perThreadCommSec[j] += sec / 2
		}
	}

	// Private traffic: bandwidth-bound streaming, partly remote when
	// allocation is not local, inflated under dynamic scheduling.
	for i, th := range w.Threads {
		traffic := th.MemoryTraffic*trafficInflation + migBytesPerIter
		if traffic == 0 {
			continue
		}
		l3 := cacheDomain(pus[computePU[i]])
		occ := l3Occupancy[l3]
		capacity := l3Size[l3]
		missFrac := coldMissFraction
		if capacity > 0 && occ > capacity {
			if overflow := (occ - capacity) / occ; overflow > missFrac {
				missFrac = overflow
			}
		} else if capacity == 0 {
			missFrac = 1
		}
		hitBytes := traffic * (1 - missFrac)
		missBytes := traffic * missFrac
		missLines := missBytes / CacheLine
		perThreadStreamSec[i] += hitBytes/(l3StreamGBps*1e9) + missBytes/(perCoreStreamGBps*1e9)
		dramLat := attrs.DRAMLatencyCycles * (1 - remoteAllocFrac)
		dramLat += attrs.DRAMLatencyCycles * attrs.RemoteNUMAFactor * remoteAllocFrac
		perThreadStallCycles[i] += missLines * dramLat
		l3Misses += missLines
		node := numaOf(pus[computePU[i]])
		nodeDRAMBytes[node] += missBytes
		if remoteBytes := missBytes * remoteAllocFrac; remoteBytes > 0 {
			crossBytes += remoteBytes
			nodeLinkBytes[node] += remoteBytes
		}
	}

	// Per-thread iteration time: compute overlaps prefetched streaming;
	// communication latency does not overlap.
	perThreadSeconds := make([]float64, n)
	bottleneck := 0
	for i, th := range w.Threads {
		core := pus[computePU[i]].Parent
		factor := float64(computeOnCore[core])
		if factor < 1 {
			factor = 1
		}
		factor += controlShareFactor * float64(controlOnCore[core])
		if w.ControlThreads > 0 && !controlBound {
			ctlLoad := float64(w.ControlThreads) / 4 / float64(top.NumCores())
			if ctlLoad > 1 {
				ctlLoad = 1
			}
			factor *= 1 + unboundControlNoiseMax*ctlLoad
		}
		computeSec := th.ComputeCycles * factor / clockHz
		busy := computeSec
		if perThreadStreamSec[i] > busy {
			busy = perThreadStreamSec[i]
		}
		perThreadSeconds[i] = busy + perThreadCommSec[i]
		if perThreadSeconds[i] > perThreadSeconds[bottleneck] {
			bottleneck = i
		}
	}

	// Iteration time: pipelined steady state (slowest thread) or, for
	// fork-join runtimes, the sum of the per-stage critical paths; in
	// both cases bounded below by the busiest NUMA channel.
	var iterSeconds float64
	if w.Stages == nil {
		iterSeconds = perThreadSeconds[bottleneck]
		if pl.Dynamic != nil {
			if w.ControlThreads > 0 {
				// Unbound control threads put a scheduler wake-up on
				// every pipeline handoff.
				iterSeconds += w.ControlEventsPerIter * unboundWakeupSeconds
			}
			// A migration of any stage stalls the whole pipeline while
			// the stage refills its state: the refill traffic of every
			// thread lands on the critical path, and each migration
			// opens a bubble of about half an iteration while the
			// stalled stage's successors drain and refill.
			iterSeconds += float64(n) * migBytesPerIter / (perCoreStreamGBps * 1e9)
			iterSeconds *= 1 + 0.5*migrations/float64(w.Iterations)
		}
	} else {
		for _, stage := range w.Stages {
			var worst float64
			for _, t := range stage {
				if perThreadSeconds[t] > worst {
					worst = perThreadSeconds[t]
				}
			}
			iterSeconds += worst
		}
	}
	for _, bytes := range nodeLinkBytes {
		if t := bytes / (attrs.InterconnectGBps * 1e9); t > iterSeconds {
			iterSeconds = t
		}
	}
	dramBytesPerSec := attrs.LocalMemGBps * 1e9
	if dramBytesPerSec <= 0 {
		dramBytesPerSec = 20e9
	}
	for _, bytes := range nodeDRAMBytes {
		if t := bytes / dramBytesPerSec; t > iterSeconds {
			iterSeconds = t
		}
	}

	iters := float64(w.Iterations)
	switches := w.StartupContextSwitches + preemptSwitches
	ctl := w.ControlEventsPerIter * iters
	if controlBound {
		ctl *= boundControlSwitchDiscount
	}
	switches += ctl

	return &Result{
		Seconds:          iterSeconds * iters,
		L3Misses:         l3Misses * iters,
		StalledCycles:    sum(perThreadStallCycles) * iters,
		ContextSwitches:  switches,
		CPUMigrations:    migrations,
		CrossNUMABytes:   crossBytes * iters,
		BottleneckThread: bottleneck,
	}, nil
}

// refMachines are the machines the reference equivalence runs on.
var refMachines = []string{"fig2", "smp12e5", "smp20e7"}

// refCase is one Simulate input: a workload over a dense window and
// the placement to run it under.
type refCase struct {
	w  *Workload
	pl *Placement
}

// randomRefCase draws a workload of n threads on top from rng: per-thread
// characteristics, a window of the given density (symmetric or not;
// integer or fractional volumes), control threads, master allocation
// and stages on a coin flip each, and a static, partly control-bound or
// Dynamic placement.
func randomRefCase(rng *rand.Rand, top *topology.Topology, n int, density float64, symmetric bool) refCase {
	m := comm.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || (symmetric && j < i) || rng.Float64() >= density {
				continue
			}
			v := float64(rng.Intn(1<<20) + 1)
			if rng.Intn(2) == 0 {
				v = rng.Float64() * (1 << 24)
			}
			if symmetric {
				m.AddSym(i, j, v)
			} else {
				m.Set(i, j, v)
			}
		}
	}
	threads := make([]Thread, n)
	for i := range threads {
		threads[i] = Thread{
			ComputeCycles: float64(rng.Intn(1e7)),
			WorkingSet:    float64(rng.Intn(64 << 20)),
			MemoryTraffic: float64(rng.Intn(1 << 22)),
		}
	}
	w := &Workload{Name: "ref", Threads: threads, Comm: m, Iterations: 1 + rng.Intn(100)}
	if rng.Intn(2) == 0 {
		w.ControlThreads, w.ControlEventsPerIter = n, float64(rng.Intn(50))
	}
	w.MasterAlloc = rng.Intn(4) == 0
	if rng.Intn(3) == 0 {
		stages := make([][]int, 1+rng.Intn(4))
		for i, k := range rng.Perm(n) {
			stages[k%len(stages)] = append(stages[k%len(stages)], i)
		}
		w.Stages = stages
	}
	pus := top.NumPUs()
	pl := &Placement{ComputePU: make([]int, n), LocalAlloc: rng.Intn(2) == 0}
	for i := range pl.ComputePU {
		pl.ComputePU[i] = rng.Intn(pus)
	}
	switch rng.Intn(3) {
	case 0:
		pl.ControlPU = make([]int, n)
		for i := range pl.ControlPU {
			pl.ControlPU[i] = rng.Intn(pus+1) - 1 // -1: unbound
		}
	case 1:
		pl.Dynamic = &DynamicPolicy{Policy: SchedPolicy(rng.Intn(2)), Seed: rng.Int63()}
	}
	return refCase{w, pl}
}

// cliqueWindow is a fleet shift window: n/k disjoint k-cliques of
// all-to-all traffic over consecutive tasks.
func cliqueWindow(n, k int, vol float64) *comm.Matrix {
	m := comm.NewMatrix(n)
	for base := 0; base < n; base += k {
		for i := base; i < base+k && i < n; i++ {
			for j := i + 1; j < base+k && j < n; j++ {
				m.AddSym(i, j, vol)
			}
		}
	}
	return m
}

// checkRef runs Simulate on c's window stored dense and sparse and the
// reference on the dense one. Dense and sparse storage must agree bit
// for bit; the reference must too when exact is set (a symmetric
// nonzero pattern), and to 1e-12 relative otherwise — a lone lower cell
// is charged in its own row, not its mirror's, which moves only the
// summation order.
func checkRef(t *testing.T, name string, top *topology.Topology, c refCase, exact bool) {
	t.Helper()
	want, werr := simulateRef(top, c.w, c.pl)
	dense, derr := Simulate(top, c.w, c.pl)
	sw := *c.w
	sw.Comm = comm.SparseFromMatrix(c.w.Comm.Dense())
	sparse, serr := Simulate(top, &sw, c.pl)
	if (werr == nil) != (derr == nil) || (derr == nil) != (serr == nil) {
		t.Fatalf("%s: reference error %v, dense %v, sparse %v", name, werr, derr, serr)
	}
	if werr != nil {
		if werr.Error() != derr.Error() || derr.Error() != serr.Error() {
			t.Fatalf("%s: reference error %q, dense %q, sparse %q", name, werr, derr, serr)
		}
		return
	}
	if *dense != *sparse {
		t.Fatalf("%s: dense storage %+v, sparse storage %+v", name, *dense, *sparse)
	}
	if exact {
		if *dense != *want {
			t.Fatalf("%s: got %+v, reference %+v", name, *dense, *want)
		}
		return
	}
	for _, f := range []struct {
		name     string
		got, ref float64
	}{
		{"Seconds", dense.Seconds, want.Seconds},
		{"L3Misses", dense.L3Misses, want.L3Misses},
		{"StalledCycles", dense.StalledCycles, want.StalledCycles},
		{"ContextSwitches", dense.ContextSwitches, want.ContextSwitches},
		{"CPUMigrations", dense.CPUMigrations, want.CPUMigrations},
		{"CrossNUMABytes", dense.CrossNUMABytes, want.CrossNUMABytes},
	} {
		if math.Abs(f.got-f.ref) > 1e-12*math.Abs(f.ref) {
			t.Fatalf("%s: %s %v, reference %v", name, f.name, f.got, f.ref)
		}
	}
}

// TestSimulateMatchesDenseReference holds the affinity-walk Simulate to
// the dense reference on every reference machine: random symmetric and
// asymmetric windows at several densities, with and without control
// threads, stages and a Dynamic policy, plus the fleet shift window (20
// disjoint 8-cliques over 160 tasks) and a ring under a static binding.
func TestSimulateMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, machine := range refMachines {
		top, err := topology.ByName(machine)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 60; k++ {
			n := 1 + rng.Intn(2*top.NumPUs())
			density := []float64{0, 0.02, 0.1, 0.5, 1}[k%5]
			symmetric := k%2 == 0
			name := fmt.Sprintf("%s case %d (n=%d density=%g symmetric=%v)", machine, k, n, density, symmetric)
			checkRef(t, name, top, randomRefCase(rng, top, n, density, symmetric), symmetric)
		}
		n := min(160, top.NumPUs())
		for _, m := range []*comm.Matrix{cliqueWindow(n, 8, 1<<16), comm.Ring(n, 1<<12, true)} {
			c := randomRefCase(rng, top, n, 0, true)
			c.w.Comm = m
			c.pl = &Placement{ComputePU: rng.Perm(top.NumPUs())[:n], LocalAlloc: true}
			checkRef(t, machine+" fleet window", top, c, true)
		}
	}
}

// FuzzSimulateMatchesReference fuzzes the same equivalence: the seed
// draws the workload, the other inputs its machine, order, density and
// symmetry.
func FuzzSimulateMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(16), uint8(40), true)
	f.Add(int64(2), uint8(1), uint8(200), uint8(5), false)
	f.Add(int64(3), uint8(2), uint8(160), uint8(12), true)
	f.Fuzz(func(t *testing.T, seed int64, machine, order, density uint8, symmetric bool) {
		top, err := topology.ByName(refMachines[int(machine)%len(refMachines)])
		if err != nil {
			t.Fatal(err)
		}
		if order == 0 {
			return
		}
		c := randomRefCase(rand.New(rand.NewSource(seed)), top, int(order), float64(density)/255, symmetric)
		checkRef(t, fmt.Sprintf("seed %d", seed), top, c, symmetric)
	})
}

// TestSimulateAllocatesNoMoreThanReference is the allocation tripwire:
// at 160 threads on smp20e7, over the fleet shift window stored either
// way, Simulate allocates no more per call than the reference's 18.3 KB.
func TestSimulateAllocatesNoMoreThanReference(t *testing.T) {
	top := topology.SMP20E7()
	rng := rand.New(rand.NewSource(7))
	c := randomRefCase(rng, top, 160, 0, true)
	c.w.Comm, c.w.Stages, c.w.ControlThreads = cliqueWindow(160, 8, 1<<16), nil, 0
	c.pl = &Placement{ComputePU: rng.Perm(160), LocalAlloc: true}
	perCall := func(simulate func(*topology.Topology, *Workload, *Placement) (*Result, error), w *Workload) uint64 {
		const calls = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for range calls {
			if _, err := simulate(top, w, c.pl); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	const maxBytes = 18300
	sparse := *c.w
	sparse.Comm = comm.SparseFromMatrix(c.w.Comm.Dense())
	ref := perCall(simulateRef, c.w)
	for _, w := range []*Workload{c.w, &sparse} {
		got := perCall(Simulate, w)
		t.Logf("Simulate on %T: %d B per call; the reference %d B", w.Comm, got, ref)
		if got > maxBytes || got > ref {
			t.Errorf("Simulate on %T allocates %d B per call; the reference %d B, bound %d B", w.Comm, got, ref, maxBytes)
		}
	}
}

// BenchmarkSimulateFleetWindow times one model of the fleet shift
// window (20 disjoint 8-cliques over 160 threads on smp20e7) stored
// sparse and dense, against the dense reference.
func BenchmarkSimulateFleetWindow(b *testing.B) {
	top := topology.SMP20E7()
	rng := rand.New(rand.NewSource(7))
	c := randomRefCase(rng, top, 160, 0, true)
	c.w.Comm, c.w.Stages, c.w.ControlThreads = cliqueWindow(160, 8, 1<<16), nil, 0
	c.pl = &Placement{ComputePU: rng.Perm(160), LocalAlloc: true}
	sparse := *c.w
	sparse.Comm = comm.SparseFromMatrix(c.w.Comm.Dense())
	for _, bc := range []struct {
		name     string
		simulate func(*topology.Topology, *Workload, *Placement) (*Result, error)
		w        *Workload
	}{{"sparse", Simulate, &sparse}, {"dense", Simulate, c.w}, {"reference", simulateRef, c.w}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := bc.simulate(top, bc.w, c.pl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
