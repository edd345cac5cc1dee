package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"orwlplace"
	"orwlplace/internal/comm"
	"orwlplace/internal/placement"
	"orwlplace/internal/treematch"
)

// The place workloads: warm-ring160 and cold-clustered. Both send
// placement requests through one RemotePlacement with a two-connection
// pool from two closed-loop callers; they are the same placement/orwlnet
// path used the two ways (hit vs miss), so a cache or codec change that
// helps one at the other's expense shows.

const (
	callers     = 2
	ringTasks   = 160
	ringMachine = "smp20e7"
)

// roundRobinPU names the topology-oblivious strategy map_cost_ratio
// compares against.
var roundRobinPU = treematch.StrategyRoundRobinPU.String()

// placeWorld is a set-up place workload: daemon up, pool dialed, inputs
// generated, caches primed.
type placeWorld struct {
	warm bool
	d    *daemon
	rs   *orwlplace.RemotePlacement

	// twin is an in-process service per machine on the daemon's own
	// topology objects: the derived reference responses are checked
	// against. probe is a second engine per machine, so timing a compute
	// there is not served from what the twin just cached.
	twin  map[string]*placement.LocalService
	probe map[string]*placement.Engine

	ring  *placement.PlaceRequest // warm: the one request
	pools [callers][]coldEntry    // cold: each caller's base matrices
	next  [callers]int            // cold: next pool index per caller
}

func setupPlace(name string, seed int64) (w *placeWorld, err error) {
	w = &placeWorld{warm: name == "warm-ring160", twin: map[string]*placement.LocalService{}, probe: map[string]*placement.Engine{}}
	machines := coldMachines
	if w.warm {
		machines = []string{ringMachine}
	}
	if w.d, err = startDaemon(machines, false); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	ctx := context.Background()
	if w.rs, err = orwlplace.DialPlacement(ctx, w.d.addr, orwlplace.WithPoolSize(callers)); err != nil {
		return nil, err
	}
	for _, m := range machines {
		if err = w.addTwin(m); err != nil {
			return nil, err
		}
	}
	var prime []*placement.PlaceRequest
	if w.warm {
		m := comm.Ring(ringTasks, intraVolume, true)
		// One workload placed many times hashes its matrix once, as a
		// real caller would.
		w.ring = &placement.PlaceRequest{Machine: ringMachine, Strategy: placement.TreeMatch, Matrix: m, MatrixFP: comm.Fingerprint(m), Entities: ringTasks}
		prime = append(prime, w.ring)
	} else {
		for c := range w.pools {
			w.pools[c] = newColdPool(seed, c)
		}
		// One placement per machine, so lazily built state exists
		// before the first measured call.
		prime = append(prime, w.pools[0][0].request(), w.pools[0][1].request())
	}
	for _, req := range prime {
		if _, err = w.rs.Place(ctx, req); err != nil {
			return nil, fmt.Errorf("priming: %w", err)
		}
	}
	return w, nil
}

// addTwin builds the twin service and the probe engine of one machine on
// the daemon's own topology object.
func (w *placeWorld) addTwin(machine string) error {
	top, err := w.d.topology(machine)
	if err != nil {
		return err
	}
	eng, err := placement.NewEngine(top)
	if err != nil {
		return err
	}
	if w.twin[machine], err = placement.NewLocalService(eng); err != nil {
		return err
	}
	w.probe[machine], err = placement.NewEngine(top)
	return err
}

func (e coldEntry) request() *placement.PlaceRequest {
	return &placement.PlaceRequest{Machine: e.machine, Strategy: placement.TreeMatch, Matrix: e.m, Entities: e.m.Order()}
}

// request returns the caller's next request: the ring, or the next pool
// matrix perturbed into one the daemon has never seen.
func (w *placeWorld) request(caller int) *placement.PlaceRequest {
	if w.warm {
		return w.ring
	}
	e := w.pools[caller][w.next[caller]%coldPoolSize]
	w.next[caller]++
	e.perturb()
	return e.request()
}

func (w *placeWorld) close() {
	if w.rs != nil {
		w.rs.Close()
	}
	w.d.stop()
}

// validResponse is the cheap per-call output check of the timed loop;
// the twin comparison runs in sample, outside any measured interval.
func (w *placeWorld) validResponse(req *placement.PlaceRequest, resp *placement.PlaceResponse, err error) bool {
	return err == nil && resp != nil && resp.Assignment != nil &&
		len(resp.Assignment.ComputePU) == req.Entities && resp.CacheHit == w.warm
}

// placeRun is what one drive of a place workload measured.
type placeRun struct {
	calls      samples
	segs       []segment
	hits       int
	allocBytes uint64
	reqBytes   uint64
	respBytes  uint64
}

// merge adds another drive's samples, segments and counters.
func (r *placeRun) merge(o *placeRun) {
	r.calls.merge(&o.calls)
	r.segs = append(r.segs, o.segs...)
	r.hits += o.hits
	r.allocBytes += o.allocBytes
	r.reqBytes += o.reqBytes
	r.respBytes += o.respBytes
}

// placeSegment is the segment length of the place workloads: thousands
// of calls even on the cold one.
const placeSegment = 250 * time.Millisecond

// drive runs the closed loop for d, cut into segments of placeSegment:
// both callers place back to back, each on its own goroutine. tracers is
// nil for an untraced pass, else one tracer per caller.
func (w *placeWorld) drive(d time.Duration, tracers []*tracer) *placeRun {
	ctx := context.Background()
	segs := max(int(d/placeSegment), 1)
	segLen := d / time.Duration(segs)
	run := &placeRun{segs: make([]segment, segs)}
	type callerStats struct {
		opCount
		segUS [][]float64 // latencies of the successful calls, per segment
		hits  int
	}
	perCaller := make([]callerStats, callers)
	for c := range perCaller {
		// Room for 100k calls/s, so growing the slices does not show up
		// in alloc_kb_per_op.
		perCaller[c].segUS = make([][]float64, segs)
		for s := range perCaller[c].segUS {
			perCaller[c].segUS[s] = make([]float64, 0, int(segLen.Seconds()*100e3)+64)
		}
	}
	var ms0, ms1 runtime.MemStats
	in0, out0 := w.rs.WirePoolStats()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		var tr *tracer
		if tracers != nil {
			tr = tracers[c]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := &perCaller[c]
			for time.Now().Before(deadline) {
				tr.newTrace()
				root := tr.begin(openSpan{}, "benchmark", "place")
				req := w.request(c)
				rpc := tr.begin(root, "orwlnet", "orwlnet.place")
				start := time.Now()
				resp, err := w.rs.Place(ctx, req)
				end := time.Now()
				tr.end(rpc)
				tr.end(root)
				st.attempted++
				if !w.validResponse(req, resp, err) {
					st.failed++
					continue
				}
				if resp.CacheHit {
					st.hits++
				}
				// The call in flight at the deadline lands in the last
				// segment.
				seg := min(int(end.Sub(t0)/segLen), segs-1)
				st.segUS[seg] = append(st.segUS[seg], float64(end.Sub(start).Nanoseconds())/1e3)
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	in1, out1 := w.rs.WirePoolStats()
	run.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	run.reqBytes, run.respBytes = out1-out0, in1-in0
	for s := range run.segs {
		run.segs[s].busy = segLen.Seconds()
	}
	for c := range perCaller {
		run.calls.add(perCaller[c].opCount)
		run.hits += perCaller[c].hits
		for s, us := range perCaller[c].segUS {
			run.segs[s].ops += len(us)
			run.segs[s].us = append(run.segs[s].us, us...)
			run.calls.us = append(run.calls.us, us...)
		}
	}
	return run
}

// sample places n fresh requests one at a time and checks every response
// against the twin service on the same topology: same ComputePU, and the
// cache-hit flag the workload defines. With a tracer it also times, on
// the same request, the direct calls into each layer.
func (w *placeWorld) sample(tr *tracer, n int) opCount {
	ctx := context.Background()
	var ops opCount
	for i := 0; i < n; i++ {
		ops.attempted++
		req := w.request(i % callers)
		tr.newTrace()
		var resp, local *placement.PlaceResponse
		var err, lerr error
		// Uncontended: nothing else is in flight on the daemon.
		tr.timed(openSpan{}, "orwlnet", "orwlnet.place_rtt", func() { resp, err = w.rs.Place(ctx, req) })
		twin := tr.begin(openSpan{}, "benchmark", "twin")
		tr.timed(twin, "placement", "placement.place_local", func() { local, lerr = w.twin[req.Machine].Place(ctx, req) })
		if tr != nil {
			var fp uint64
			tr.timed(twin, "comm", "comm.fingerprint", func() { fp = comm.Fingerprint(req.Matrix) })
			compute := "placement.compute_miss"
			if w.warm {
				compute = "placement.compute_hit"
			}
			tr.timed(twin, "placement", compute, func() {
				_, _, lerr2 := w.probe[req.Machine].ComputeHinted(req.Strategy, req.Matrix, fp, req.Entities, req.Options)
				if lerr == nil {
					lerr = lerr2
				}
			})
			if !w.warm {
				// The warm workload never reaches TreeMatch.
				tr.timed(twin, "treematch", "treematch.map", func() {
					_, lerr2 := treematch.Map(w.probe[req.Machine].Topology(), req.Matrix, req.Options)
					if lerr == nil {
						lerr = lerr2
					}
				})
			}
		}
		tr.end(twin)
		if !w.validResponse(req, resp, err) || lerr != nil || !slices.Equal(resp.Assignment.ComputePU, local.Assignment.ComputePU) {
			ops.failed++
		}
	}
	return ops
}

// quality is map_cost_ratio: the hop-weighted communication cost
// (PlaceResponse.Cost) the daemon's TreeMatch placements reach, summed
// over the workload's base matrices, as a share of what round-robin-pu
// reaches on the same matrices. A faster mapper that maps worse moves
// it up.
func (w *placeWorld) quality() (float64, error) {
	ctx := context.Background()
	var reqs []*placement.PlaceRequest
	if w.warm {
		reqs = []*placement.PlaceRequest{w.ring}
	} else {
		for c := range w.pools {
			for _, e := range w.pools[c] {
				reqs = append(reqs, e.request())
			}
		}
	}
	var tm, rr float64
	for _, req := range reqs {
		for _, strategy := range []string{placement.TreeMatch, roundRobinPU} {
			r := *req
			r.Strategy = strategy
			resp, err := w.rs.Place(ctx, &r)
			if err != nil {
				return 0, fmt.Errorf("quality pass: %w", err)
			}
			if strategy == roundRobinPU {
				rr += resp.Cost
			} else {
				tm += resp.Cost
			}
		}
	}
	if rr == 0 {
		return 0, fmt.Errorf("quality pass: round-robin cost is 0")
	}
	return tm / rr, nil
}
