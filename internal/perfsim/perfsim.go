// Package perfsim models the execution of a placed multi-threaded
// workload on a NUMA machine. It substitutes for the paper's physical
// testbeds: Go cannot pin goroutines to cores, so the performance
// effects of thread placement — shared-cache communication, NUMA
// latency and bandwidth, hyperthread contention, OS migrations — are
// computed from an explicit analytical model instead of measured with
// hardware counters.
//
// The model, in one paragraph: per iteration each thread owes
// ComputeCycles of work (multiplied by a contention factor when compute
// threads share a physical core) and streams MemoryTraffic bytes
// through the cache hierarchy; streaming is prefetched, so it overlaps
// compute and costs bandwidth, not latency. Communication between
// threads is synchronisation-bound and costs latency per cache line —
// an L2/L3 access when the peers share a cache, a (remote) DRAM access
// otherwise. Aggregate traffic is pushed through two bandwidth channels
// per NUMA node (local DRAM and the interconnect link); the iteration
// time is the maximum of the slowest thread and the busiest channel
// (steady-state throughput of a pipelined or bulk-synchronous
// execution), or the sum over stages for fork-join runtimes. Unbound
// executions are placed by a simulated OS policy (dynsched.go) that
// adds migrations, their cache-refill traffic and a cache-disruption
// inflation of all private traffic.
//
// Counters (L3 misses, stalled front-end cycles, context switches, CPU
// migrations) are accumulated from the same quantities, so the tables
// of the paper stay consistent with its figures.
package perfsim

import (
	"cmp"
	"fmt"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// CacheLine is the modeled cache line size in bytes.
const CacheLine = 64

// Model constants; see the package comment for their role.
const (
	// controlShareFactor is the per-control-thread slowdown of a
	// compute thread sharing its core (control threads are mostly
	// blocked).
	controlShareFactor = 0.05
	// unboundControlNoiseMax scales the compute-time noise caused by
	// control threads left to the OS: they time-slice with the compute
	// threads, the more of them relative to the machine the worse.
	unboundControlNoiseMax = 0.25
	// boundControlSwitchDiscount scales context switches when control
	// threads have a dedicated PU.
	boundControlSwitchDiscount = 0.9
	// coldMissFraction is the compulsory-miss floor of private traffic.
	coldMissFraction = 0.02
	// commMLP is the memory-level parallelism achieved on
	// communication traffic, which is synchronisation-bound.
	commMLP = 2
	// perCoreStreamGBps is the streaming bandwidth one core can draw
	// from its local memory controller (prefetched, latency hidden).
	perCoreStreamGBps = 10
	// l3StreamGBps is the per-core bandwidth of L3-resident traffic.
	l3StreamGBps = 30
	// unboundWakeupSeconds is the scheduler latency of waking an
	// unbound control thread. In a pipelined execution every
	// grant/release handoff sits on the critical path, so these
	// wake-ups throttle the whole pipeline — one reason the paper's
	// strategy of parking control threads on hyperthread siblings or
	// spare cores pays off.
	unboundWakeupSeconds = 5e-6
)

// Thread describes one simulated compute thread.
type Thread struct {
	// ComputeCycles is the pure computation per iteration, in cycles.
	ComputeCycles float64
	// WorkingSet is the per-thread resident data in bytes; it drives
	// cache-capacity misses and migration refill costs.
	WorkingSet float64
	// MemoryTraffic is the private data volume in bytes that the thread
	// moves through the cache hierarchy each iteration.
	MemoryTraffic float64
}

// Workload is a placement-independent description of an application
// run.
type Workload struct {
	Name    string
	Threads []Thread
	// Comm holds the bytes exchanged between thread pairs per
	// iteration, in either storage: Simulate walks its nonzeros.
	Comm comm.Affinity
	// Iterations is the number of iterations (or frames) executed.
	Iterations int
	// ControlThreads is the number of runtime control threads deployed
	// alongside the compute threads (ORWL lock managers; zero for
	// OpenMP-style runtimes).
	ControlThreads int
	// ControlEventsPerIter is the number of control-thread wake-ups per
	// iteration; each contributes a context switch.
	ControlEventsPerIter float64
	// StartupContextSwitches accounts for thread creation and runtime
	// initialisation.
	StartupContextSwitches float64
	// MasterAlloc is true when the shared data is allocated (first
	// touched) by a master thread before the parallel execution, as in
	// the OpenMP/MKL baselines: private DRAM traffic is then partly
	// remote even under a static binding. ORWL tasks allocate their
	// own locations, so their workloads leave this false.
	MasterAlloc bool
	// Stages, when non-nil, groups thread indexes into sequential
	// fork-join phases: the iteration time is the sum over stages of
	// the slowest member, instead of the global maximum of a pipelined
	// steady state.
	Stages [][]int
}

// Validate checks internal consistency.
func (w *Workload) Validate() error {
	if len(w.Threads) == 0 {
		return fmt.Errorf("perfsim: workload %q has no threads", w.Name)
	}
	if comm.NilAffinity(w.Comm) || w.Comm.Order() != len(w.Threads) {
		return fmt.Errorf("perfsim: workload %q: comm matrix order mismatch", w.Name)
	}
	if w.Iterations <= 0 {
		return fmt.Errorf("perfsim: workload %q: iterations must be positive", w.Name)
	}
	if w.Stages != nil {
		seen := make([]bool, len(w.Threads))
		for _, stage := range w.Stages {
			for _, t := range stage {
				if t < 0 || t >= len(w.Threads) {
					return fmt.Errorf("perfsim: workload %q: stage thread %d out of range", w.Name, t)
				}
				if seen[t] {
					return fmt.Errorf("perfsim: workload %q: thread %d in two stages", w.Name, t)
				}
				seen[t] = true
			}
		}
		for t, s := range seen {
			if !s {
				return fmt.Errorf("perfsim: workload %q: thread %d in no stage", w.Name, t)
			}
		}
	}
	return nil
}

// Placement states where each thread runs.
type Placement struct {
	// ComputePU[i] is the logical PU of thread i. Ignored when Dynamic
	// is set.
	ComputePU []int
	// ControlPU[i] is the PU the control threads attached to thread i
	// are bound to, or -1 when unbound. May be nil.
	ControlPU []int
	// LocalAlloc is true when memory is first-touched by bound threads
	// (so private DRAM traffic stays on the local node) — unless the
	// workload declares MasterAlloc.
	LocalAlloc bool
	// Dynamic, when non-nil, lets the simulated OS scheduler place (and
	// migrate) threads instead of a static binding.
	Dynamic *DynamicPolicy
}

// Result aggregates the modeled run.
type Result struct {
	// Seconds is the modeled wall-clock time.
	Seconds float64
	// L3Misses counts cache lines served from beyond L3.
	L3Misses float64
	// StalledCycles counts front-end stall cycles over all threads.
	StalledCycles float64
	// ContextSwitches and CPUMigrations mirror the OS counters of
	// Tables II-IV.
	ContextSwitches float64
	CPUMigrations   float64
	// CrossNUMABytes is the total traffic crossing NUMA nodes.
	CrossNUMABytes float64
	// BottleneckThread is the index of the slowest thread (diagnostic).
	BottleneckThread int
}

// GFLOPS converts the result to a rate given the total floating-point
// operations of the run.
func (r *Result) GFLOPS(totalFlops float64) float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return totalFlops / r.Seconds / 1e9
}

// FPS converts the result to frames per second given the total frames.
func (r *Result) FPS(frames int) float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(frames) / r.Seconds
}

// Simulate runs the model for a workload under a placement on the given
// machine.
func Simulate(top *topology.Topology, w *Workload, pl *Placement) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	n := len(w.Threads)
	attrs := &top.Attrs
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

	// Per-core, per-L3 and per-NUMA sums index slices by slot
	// (domainSlots), not maps: one slab of slot ids, one of all sums.
	coreOf := func(pu *topology.Object) *topology.Object { return cmp.Or(pu.Parent, pu) }
	types := int(pus[0].Type) + 1 // the PU is the innermost object type
	ids := make([]int32, 3*n+3*types)
	coreID, l3ID, nodeID, coreBase := ids[:n], ids[n:2*n], ids[2*n:3*n], ids[3*n:3*n+types]
	cores := domainSlots(top, computePU, coreOf, coreID, coreBase)
	l3s := domainSlots(top, computePU, cacheDomain, l3ID, ids[3*n+types:3*n+2*types])
	nodes := domainSlots(top, computePU, numaOf, nodeID, ids[3*n+2*types:])
	slab := make([]float64, 4*n+2*cores+l3s+2*nodes)
	carve := func(k int) (s []float64) { s, slab = slab[:k:k], slab[k:]; return s }
	perThreadCommSec, perThreadStreamSec, perThreadSeconds := carve(n), carve(n), carve(n)
	perThreadStallCycles := carve(n) // counter only
	computeOnCore, controlOnCore, l3Occupancy := carve(cores), carve(cores), carve(l3s)
	// Two bandwidth channels per NUMA node: the inter-node link and the
	// local DRAM controller.
	nodeLinkBytes, nodeDRAMBytes := carve(nodes), carve(nodes)

	// Per-core thread populations for the contention factor (a control
	// thread counts where it shares a compute thread's core), and
	// socket-level working-set occupancy for cache-capacity misses.
	for i, th := range w.Threads {
		computeOnCore[coreID[i]]++
		l3Occupancy[l3ID[i]] += th.WorkingSet
	}
	controlBound := false
	if len(pl.ControlPU) == n {
		for _, pu := range pl.ControlPU {
			if pu >= 0 && pu < len(pus) {
				controlBound = true
				if core := coreOf(pus[pu]); coreBase[core.Type] > 0 {
					controlOnCore[int(coreBase[core.Type])-1+core.LogicalIndex]++
				}
			}
		}
	}

	var l3Misses, crossBytes float64
	// Communication: latency-bound, split evenly between endpoints. A
	// pair is charged once, as CommSeconds charges it: at its upper cell
	// with the mirror folded in, or at its lone lower cell.
	var i int
	pair := func(j int, v float64) {
		switch {
		case j > i:
			if v += w.Comm.At(j, i); v == 0 {
				return // a folded volume of 0
			}
		case j == i || w.Comm.At(j, i) != 0:
			return // the diagonal, or a pair its upper cell charged
		}
		lines := v / CacheLine
		loc := topology.LocalityOf(pus[computePU[i]], pus[computePU[j]])
		var latency float64
		switch loc {
		case topology.SamePU, topology.SameCore, topology.SameL2:
			latency = attrs.L2LatencyCycles
		case topology.SameL3:
			latency = attrs.L3LatencyCycles
		case topology.SameNUMA:
			latency = attrs.DRAMLatencyCycles
		case topology.SameGroup:
			latency = attrs.DRAMLatencyCycles * attrs.RemoteNUMAFactor
		default: // cross-group
			latency = attrs.DRAMLatencyCycles * attrs.CrossGroupFactor
		}
		if loc >= topology.SameNUMA { // served by DRAM
			l3Misses += lines
			nodeDRAMBytes[nodeID[i]] += v
		}
		if loc >= topology.SameGroup { // across the interconnect
			crossBytes += v
			nodeLinkBytes[nodeID[i]] += v
			nodeLinkBytes[nodeID[j]] += v
		}
		stall := lines * latency
		perThreadStallCycles[i] += stall / 2
		perThreadStallCycles[j] += stall / 2
		sec := stall / commMLP / clockHz
		perThreadCommSec[i] += sec / 2
		perThreadCommSec[j] += sec / 2
	}
	for i = 0; i < n; i++ {
		w.Comm.ForEachRow(i, pair)
	}

	// Private traffic: bandwidth-bound streaming, partly remote when
	// allocation is not local, inflated under dynamic scheduling.
	for i, th := range w.Threads {
		traffic := th.MemoryTraffic*trafficInflation + migBytesPerIter
		if traffic == 0 {
			continue
		}
		occ := l3Occupancy[l3ID[i]]
		capacity := l3CapacityOf(cacheDomain(pus[computePU[i]]))
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
		nodeDRAMBytes[nodeID[i]] += missBytes
		if remoteBytes := missBytes * remoteAllocFrac; remoteBytes > 0 {
			crossBytes += remoteBytes
			nodeLinkBytes[nodeID[i]] += remoteBytes
		}
	}

	// Per-thread iteration time: compute overlaps prefetched streaming;
	// communication latency does not overlap.
	bottleneck := 0
	for i, th := range w.Threads {
		factor := computeOnCore[coreID[i]]
		if factor < 1 {
			factor = 1
		}
		factor += controlShareFactor * controlOnCore[coreID[i]]
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

// cacheDomain returns the L3 (or, failing that, socket or NUMA node)
// the PU belongs to.
func cacheDomain(pu *topology.Object) *topology.Object {
	for _, t := range []topology.ObjectType{topology.L3, topology.Socket, topology.NUMANode} {
		if o := pu.AncestorOfType(t); o != nil {
			return o
		}
	}
	return pu.Ancestor(0)
}

func l3CapacityOf(o *topology.Object) float64 {
	if o.Type == topology.L3 {
		return float64(o.CacheSize)
	}
	for _, c := range o.Children {
		if c.Type == topology.L3 {
			return float64(c.CacheSize)
		}
	}
	return 0
}

// domainSlots numbers the objects of picks for the PUs in computePU:
// an object's slot is its LogicalIndex past every object of the smaller
// types picked, so per-object sums index a slice instead of hashing. It
// writes thread i's slot to ids[i] and one past each type's first slot
// to the zeroed base (0 for a type no thread picked), and returns the
// slot count.
func domainSlots(top *topology.Topology, computePU []int, of func(*topology.Object) *topology.Object, ids, base []int32) int {
	pus := top.PUs()
	for _, pu := range computePU {
		base[of(pus[pu]).Type] = 1
	}
	slots := 0
	for t, b := range base {
		if b != 0 {
			base[t] = int32(slots) + 1
			slots += top.NumObjects(topology.ObjectType(t))
		}
	}
	for i, pu := range computePU {
		o := of(pus[pu])
		ids[i] = base[o.Type] - 1 + int32(o.LogicalIndex)
	}
	return slots
}

func numaOf(pu *topology.Object) *topology.Object {
	if o := pu.AncestorOfType(topology.NUMANode); o != nil {
		return o
	}
	return pu.Ancestor(0)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
