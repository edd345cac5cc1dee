package livermore

import (
	"fmt"

	"orwlplace/internal/perfsim"
	"orwlplace/internal/profile"
)

// planesStreamed is the number of planes the stencil moves per sweep:
// the five coefficient planes, the za reads and the za write-back.
const planesStreamed = 7

// Runtime traffic factors, calibrated against the measured counters of
// Table II (ORWL(Affinity) 14.2 vs OpenMP(Affinity) 64 billion L3
// misses for the same computation):
//
//   - the pipelined 2-D ORWL decomposition reuses halo rows and block
//     borders from the shared caches across the wavefront, saving a
//     fraction of the compulsory stream;
//   - the fork-join version restarts from a cold prefetch state after
//     every sweep barrier and re-reads the chunk boundary rows, so the
//     same planes cross the memory controllers more than once.
const (
	orwlPipelineTrafficFactor = 0.85
	ompBarrierTrafficFactor   = 1.8
)

// Profile builds the perfsim workload of the ORWL Livermore Kernel 23
// run at paper scale: a matrixSize² double-precision grid processed for
// `loops` sweeps on the given number of cores. Following §VI-B1, each
// block is handled by four threads — one computing the central block
// and three updating borders with the neighbourhood — so cores/4 blocks
// are used (one block below four cores), and every thread gets its own
// core.
func Profile(matrixSize, cores, loops int) (*perfsim.Workload, error) {
	if matrixSize < 4 || cores < 1 || loops < 1 {
		return nil, fmt.Errorf("livermore: invalid profile %d/%d/%d", matrixSize, cores, loops)
	}
	blocks := cores / 4
	threadsPerBlock := 4
	if blocks < 1 {
		blocks = 1
		threadsPerBlock = cores
	}
	gx, gy := GridDims(blocks)
	n := blocks * threadsPerBlock

	blockRows := matrixSize / gy
	blockCols := matrixSize / gx
	cells := float64(blockRows) * float64(blockCols)
	pipelineFactor := orwlPipelineTrafficFactor
	if blocks == 1 {
		pipelineFactor = 1 // a single block is plain serial streaming
	}
	traffic := cells * 8 * planesStreamed * pipelineFactor
	workingSet := cells * 8 * planesStreamed

	b := profile.New(fmt.Sprintf("k23-orwl-%dc", cores), n)
	central := func(blk int) int { return blk * threadsPerBlock }
	rowBorderBytes := float64(blockCols) * 8
	colBorderBytes := float64(blockRows) * 8
	for blk := 0; blk < blocks; blk++ {
		bx, by := blk%gx, blk/gx
		b.Thread(central(blk), cells*FlopsPerCell /* ~1 cycle per flop */, workingSet, traffic)
		for o := 1; o < threadsPerBlock; o++ {
			b.Thread(central(blk)+o,
				(rowBorderBytes+colBorderBytes)*2,
				(rowBorderBytes+colBorderBytes)*4,
				(rowBorderBytes+colBorderBytes)*2)
			// Border operations share the block data with the central
			// thread: strong intra-block affinity.
			b.Link(central(blk), central(blk)+o, cells*8/8)
		}
		// Cross-block border exchanges, attached to the border
		// operation threads (or the central one when the block runs
		// alone).
		attach := func(nb, off int, vol float64) {
			b.Link(central(blk)+off%threadsPerBlock, central(nb)+off%threadsPerBlock, vol)
		}
		if bx+1 < gx {
			attach(blk+1, 1, colBorderBytes)
		}
		if by+1 < gy {
			attach(blk+gx, 2, rowBorderBytes)
		}
	}

	// One control thread per border location; each sweep triggers a
	// grant/release pair per handle on both sides.
	return b.Iterations(loops).
		Control(blocks*4, float64(blocks)*4*2.5).
		Startup(float64(n + blocks*4)).
		Build()
}

// ProfileOpenMP builds the perfsim workload of the fork-join
// parallel-for implementation: `cores` threads each own a full-width
// 1-D chunk of rows with static scheduling, synchronised by a barrier
// per sweep, on shared master-allocated planes.
func ProfileOpenMP(matrixSize, cores, loops int) (*perfsim.Workload, error) {
	if matrixSize < 4 || cores < 1 || loops < 1 {
		return nil, fmt.Errorf("livermore: invalid profile %d/%d/%d", matrixSize, cores, loops)
	}
	rows := float64(matrixSize) / float64(cores)
	cells := rows * float64(matrixSize)
	barrierFactor := ompBarrierTrafficFactor
	if cores == 1 {
		barrierFactor = 1 // no barriers in a single-threaded run
	}
	b := profile.New(fmt.Sprintf("k23-omp-%dc", cores), cores).
		EachThread(cells*FlopsPerCell, cells*8*planesStreamed, cells*8*planesStreamed*barrierFactor)
	// Adjacent chunks exchange their border rows every sweep.
	rowBytes := float64(matrixSize) * 8
	for i := 0; i+1 < cores; i++ {
		b.Link(i, i+1, 2*rowBytes)
	}
	// A barrier per sweep wakes a fraction of the team; the shared
	// planes are initialised by the master thread, so first touch
	// concentrates them on its NUMA node.
	return b.Iterations(loops).
		Control(0, 0.1*float64(cores)).
		Startup(float64(cores)).
		MasterAlloc().
		Build()
}
