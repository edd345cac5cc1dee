package treematch

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"orwlplace/internal/comm"
	"orwlplace/internal/topology"
)

// plantWindow returns a copy of s with heavy random pairs planted among
// tasks: a traffic shift local to those tasks.
func plantWindow(s *comm.Sparse, tasks []int, rng *rand.Rand) *comm.Sparse {
	w := s.Clone()
	perm := rng.Perm(len(tasks))
	for k := 0; k+1 < len(perm); k += 2 {
		w.AddSym(tasks[perm[k]], tasks[perm[k+1]], float64(2000+rng.Intn(8000)))
	}
	return w
}

// bladePartition is the partition of every task mp binds under blade b
// of fleet1k: wider than a leaf partition, so its remap takes the
// partitioned path and memoises subtrees of the blade's own subtree.
func bladePartition(top *topology.Topology, mp *Mapping, b int) Partition {
	blade := top.ObjectsAtDepth(1)[b]
	pus := blade.PUs()
	lo, hi := pus[0].LogicalIndex, pus[len(pus)-1].LogicalIndex
	part := Partition{Depth: 1, Object: b}
	for g, pu := range mp.ComputePU {
		if pu >= lo && pu <= hi {
			part.Tasks = append(part.Tasks, g)
		}
	}
	return part
}

func sameBindings(t *testing.T, what string, got, want *Mapping) {
	t.Helper()
	if !slices.Equal(got.ComputePU, want.ComputePU) || !slices.Equal(got.CoreOf, want.CoreOf) || !slices.Equal(got.ControlPU, want.ControlPU) {
		t.Fatalf("%s: memoised subtrees bind differently from fresh ones", what)
	}
}

// TestSubtreeMemoMatchesFresh maps planted 2,048-task windows on one
// fleet1k whose subtree memo warms across seeds, and the same windows
// on a freshly built fleet1k per call, whose empty memo makes every
// Subtree a fresh copy: MapAffinity, a leaf RemapPartition and a
// blade-wide (partitioned) RemapPartition must bind bit-identically.
func TestSubtreeMemoMatchesFresh(t *testing.T) {
	top := topology.Fleet1K()
	base := comm.RingOfClusters(64, 32, 1000, 10)
	all := make([]int, base.Order())
	for i := range all {
		all[i] = i
	}
	for _, seed := range []int64{3, 5, 7, 11} {
		rng := rand.New(rand.NewSource(seed))
		lo := rng.Intn(len(all) - 256)
		w0 := plantWindow(base, all[lo:lo+256], rng)
		memo, err := MapAffinity(top, w0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := MapAffinity(topology.Fleet1K(), w0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameBindings(t, "MapAffinity", memo, fresh)

		leaf := memo.Partitions.Parts[rng.Intn(len(memo.Partitions.Parts))]
		blade := bladePartition(top, memo, rng.Intn(16))
		for _, step := range []struct {
			name string
			part Partition
			opt  Options
		}{{"leaf RemapPartition", leaf, Options{}}, {"blade RemapPartition", blade, Options{PartitionThreshold: 64}}} {
			w := plantWindow(w0, step.part.Tasks, rng)
			if err := RemapPartition(memo, w, step.part, step.opt); err != nil {
				t.Fatal(err)
			}
			fresh.Top = topology.Fleet1K()
			if err := RemapPartition(fresh, w, step.part, step.opt); err != nil {
				t.Fatal(err)
			}
			sameBindings(t, step.name, memo, fresh)
		}
	}
}

// TestSubtreeMemoConcurrentMapping runs MapAffinity and RemapPartition
// on one topology from several goroutines at once, first calls into
// the memo included (run it under -race), and checks every result
// against a serial run.
func TestSubtreeMemoConcurrentMapping(t *testing.T) {
	base := comm.RingOfClusters(64, 32, 1000, 10)
	want, err := MapAffinity(topology.Fleet1K(), base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	parts := want.Partitions.Parts
	windows := make([]*comm.Sparse, 4)
	remapped := make([][]int, len(windows))
	for i := range windows {
		windows[i] = plantWindow(base, parts[i].Tasks, rand.New(rand.NewSource(int64(i))))
		mp := &Mapping{Top: topology.Fleet1K(), ComputePU: slices.Clone(want.ComputePU), ControlPU: slices.Clone(want.ControlPU),
			CoreOf: slices.Clone(want.CoreOf), Partitions: want.Partitions}
		if err := RemapPartition(mp, windows[i], parts[i], Options{}); err != nil {
			t.Fatal(err)
		}
		remapped[i] = mp.ComputePU
	}

	top := topology.Fleet1K()
	var wg sync.WaitGroup
	for i := range windows {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got, err := MapAffinity(top, base, Options{})
			if err != nil {
				t.Error(err)
				return
			}
			if !slices.Equal(got.ComputePU, want.ComputePU) {
				t.Error("concurrent MapAffinity differs from the serial run")
			}
		}()
		go func() {
			defer wg.Done()
			mp := &Mapping{Top: top, ComputePU: slices.Clone(want.ComputePU), ControlPU: slices.Clone(want.ControlPU),
				CoreOf: slices.Clone(want.CoreOf), Partitions: want.Partitions}
			if err := RemapPartition(mp, windows[i], parts[i], Options{}); err != nil {
				t.Error(err)
				return
			}
			if !slices.Equal(mp.ComputePU, remapped[i]) {
				t.Errorf("concurrent RemapPartition of partition %d differs from the serial run", i)
			}
		}()
	}
	wg.Wait()
}

// TestRemapPartitionAllocatesNoSubtree is the tripwire on the adopted
// partition remap: once the subtree is memoised and the index scratch
// pooled, one remap of a 128-task partition of a 2,048-task mapping
// allocates only its own mapping (37 allocations, 7.7 KB measured),
// never a subtree (the seed's remap made 579 allocations, 54 KB) or a
// 2,048-entry index (16 KiB).
func TestRemapPartitionAllocatesNoSubtree(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector drops pooled workspaces")
	}
	top := topology.Fleet1K()
	base := comm.RingOfClusters(64, 32, 1000, 10)
	mp, err := MapAffinity(top, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	part := mp.Partitions.Parts[3]
	w := plantWindow(base, part.Tasks, rand.New(rand.NewSource(3)))
	remap := func() {
		if err := RemapPartition(mp, w, part, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	remap() // warm the memo and the pool
	allocs := testing.AllocsPerRun(20, remap)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const runs = 20
	for range runs {
		remap()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	// The pool hands this goroutine back the workspace it just used: a
	// remap must leave its index all -1 for the next one.
	ws := getWorkspace()
	if i := slices.IndexFunc(ws.local[:cap(ws.local)], func(v int) bool { return v != -1 }); i >= 0 {
		t.Fatalf("RemapPartition left index entry %d = %d", i, ws.local[i])
	}
	putWorkspace(ws)
	t.Logf("RemapPartition of %d tasks: %.0f allocs, %d B per call", len(part.Tasks), allocs, bytes)
	if allocs > maxRemapAllocs || bytes > maxRemapBytes {
		t.Fatalf("RemapPartition allocates %.0f times, %d B per call; want <= %d, <= %d B",
			allocs, bytes, maxRemapAllocs, maxRemapBytes)
	}
}

// Bounds of the remap tripwire: about 1.6 times what one remap
// measures, and under one order-sized index.
const (
	maxRemapAllocs = 52
	maxRemapBytes  = 12 << 10
)
