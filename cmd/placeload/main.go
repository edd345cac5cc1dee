// Command placeload drives a placement daemon at sustained load and
// reports what the transport delivers: warm placements per second,
// p50/p99 call latency, and bytes on the wire per placement.
// -conns 1 -inflight 1 measures one unpipelined connection; the
// defaults measure a pipelined pool.
//
// Usage:
//
//	placeload [-addr host:port] [-machine smp20e7] [-tasks 160] \
//	          [-conns 4] [-inflight 32] [-duration 2s] [-batch 8] \
//	          [-json]
//
// Without -addr it self-serves: an in-process daemon on a loopback
// port with the -machine topology, so one command measures the full
// client/server transport without external setup. The workload is the
// repo's benchmark pattern — a wrapped communication ring of -tasks
// entities at 1 MiB volume — placed with the treematch strategy, so
// warm calls exercise exactly the daemon's mapping-cache hot path.
//
// -json emits one benchjson-style metrics object (iters, ns_op,
// extra{placements_per_sec, p50_ns, p99_ns, req_bytes_per_place,
// batch_req_bytes_per_slot, ...}) for cmd/benchjson to pair.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"orwlplace/internal/comm"
	"orwlplace/internal/orwlnet"
	"orwlplace/internal/placement"
	"orwlplace/internal/topology"
)

// metrics mirrors cmd/benchjson's Metrics JSON shape, so -json output
// pastes straight into the BENCH_*.json trajectory.
type metrics struct {
	Iters    int64              `json:"iters"`
	NsOp     float64            `json:"ns_op"`
	BytesOp  float64            `json:"b_op,omitempty"`
	AllocsOp float64            `json:"allocs_op,omitempty"`
	Extra    map[string]float64 `json:"extra,omitempty"`
}

func main() {
	addr := flag.String("addr", "", "daemon address; empty self-serves an in-process daemon on loopback")
	machine := flag.String("machine", "smp20e7", "machine topology the self-served daemon maps onto")
	tasks := flag.Int("tasks", 160, "ring size: entities in the workload matrix")
	conns := flag.Int("conns", 4, "connections in the client pool")
	inflight := flag.Int("inflight", 32, "concurrent placement calls kept in flight")
	duration := flag.Duration("duration", 2*time.Second, "measurement window")
	batchSlots := flag.Int("batch", 8, "slots in the warm PlaceBatch payload measurement (0 skips it)")
	jsonOut := flag.Bool("json", false, "emit one benchjson-style metrics object instead of prose")
	flag.Parse()

	if err := run(*addr, *machine, *tasks, *conns, *inflight, *duration, *batchSlots, *jsonOut); err != nil {
		fmt.Fprintf(os.Stderr, "placeload: %v\n", err)
		os.Exit(1)
	}
}

func run(addr, machine string, tasks, conns, inflight int, duration time.Duration, batchSlots int, jsonOut bool) error {
	ctx := context.Background()

	if addr == "" {
		top, err := topology.ByName(machine)
		if err != nil {
			return err
		}
		fleet := placement.NewMultiService()
		if err := fleet.AddMachine(machine, top); err != nil {
			return err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv, err := orwlnet.NewServer(lis, nil, orwlnet.WithPlacement(fleet))
		if err != nil {
			return err
		}
		go srv.Serve()
		defer srv.Close()
		addr = lis.Addr().String()
	}

	svc, err := orwlnet.DialPlacementService(ctx, addr, orwlnet.WithPoolSize(conns))
	if err != nil {
		return err
	}
	defer svc.Close()

	m := comm.Ring(tasks, 1<<20, true)
	// The matrix never changes, so hash it once up front — the steady
	// state a real caller placing one workload reaches too.
	req := &placement.PlaceRequest{
		Strategy: placement.TreeMatch,
		Matrix:   m,
		MatrixFP: comm.Fingerprint(m),
		Entities: tasks,
	}

	// Prime: fills the daemon's mapping cache and its seen-matrix
	// table, so the measured window is the warm steady
	// state the acceptance numbers are about.
	if _, err := svc.Place(ctx, req); err != nil {
		return err
	}

	in0, out0 := svc.WirePoolStats()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		lats []int64
		errs int
	)
	deadline := time.Now().Add(duration)
	for w := 0; w < inflight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []int64
			fails := 0
			for time.Now().Before(deadline) {
				start := time.Now()
				if _, err := svc.Place(ctx, req); err != nil {
					fails++
					continue
				}
				local = append(local, time.Since(start).Nanoseconds())
			}
			mu.Lock()
			lats = append(lats, local...)
			errs += fails
			mu.Unlock()
		}()
	}
	started := time.Now()
	wg.Wait()
	elapsed := time.Since(started)
	in1, out1 := svc.WirePoolStats()

	total := int64(len(lats))
	if total == 0 {
		return fmt.Errorf("no placement completed in %v (%d errors)", duration, errs)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	perSec := float64(total) / elapsed.Seconds()
	reqBytes := float64(out1-out0) / float64(total)
	respBytes := float64(in1-in0) / float64(total)

	// Warm batch payload: one PlaceBatch of identical warm slots,
	// measured by the write-side byte delta — the per-slot request cost
	// the sparse/fingerprint encodings shrink.
	batchBytes := 0.0
	if batchSlots > 0 {
		reqs := make([]*placement.PlaceRequest, batchSlots)
		for i := range reqs {
			reqs[i] = req
		}
		_, b0 := svc.WirePoolStats()
		if _, err := svc.PlaceBatch(ctx, reqs); err != nil {
			return fmt.Errorf("warm batch: %w", err)
		}
		_, b1 := svc.WirePoolStats()
		batchBytes = float64(b1-b0) / float64(batchSlots)
	}

	res := metrics{
		Iters: total,
		NsOp:  float64(elapsed.Nanoseconds()) / float64(total),
		Extra: map[string]float64{
			"placements_per_sec":   perSec,
			"p50_ns":               float64(pct(lats, 50)),
			"p99_ns":               float64(pct(lats, 99)),
			"req_bytes_per_place":  reqBytes,
			"resp_bytes_per_place": respBytes,
			"errors":               float64(errs),
			"conns":                float64(conns),
			"inflight":             float64(inflight),
		},
	}
	if batchSlots > 0 {
		res.Extra["batch_req_bytes_per_slot"] = batchBytes
	}

	if jsonOut {
		data, err := json.Marshal(&res)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	fmt.Printf("placeload: %d placements in %v on %d conn(s) x %d in flight\n", total, elapsed.Round(time.Millisecond), conns, inflight)
	fmt.Printf("  throughput: %.0f placements/sec\n", perSec)
	fmt.Printf("  latency:    p50 %v, p99 %v\n", time.Duration(pct(lats, 50)), time.Duration(pct(lats, 99)))
	fmt.Printf("  wire:       %.0f B/place out, %.0f B/place in", reqBytes, respBytes)
	if batchSlots > 0 {
		fmt.Printf(", warm batch %.0f B/slot out", batchBytes)
	}
	fmt.Println()
	if errs > 0 {
		fmt.Printf("  errors:     %d\n", errs)
	}
	return nil
}

// pct returns the p-th percentile of sorted ns latencies.
func pct(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
