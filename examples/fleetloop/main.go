// Fleet adaptive loop example: the client half of the daemon-hosted
// control plane (run against `orwlnetd -place -adaptive`).
//
// Where examples/dynamic closes the placement loop inside one process
// (its own reconciler re-binding its own tasks), this process leases a
// task range from a central daemon, streams its observed traffic up,
// and obeys the remaps the daemon's controller pushes down. Several
// copies with disjoint -base ranges form one machine-wide workload:
// the daemon merges their windows into a single matrix, reconciles it,
// and every copy receives the same epoch-stamped assignment — fleet
// coordination no single process could compute from its own slice.
//
// The traffic is synthetic and shifts mid-run: a ring for the first
// -shift of the run, then a reversed pairing the initial mapping is
// wrong for. Watch the daemon adopt a remap and every client apply it
// without restarting:
//
//	orwlnetd -place -adaptive -machine smp12e5 &
//	fleetloop -peer a -base 0 -tasks 8 &
//	fleetloop -peer b -base 8 -tasks 8
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"orwlplace"
	"orwlplace/internal/orwl"
)

func main() {
	daemon := flag.String("daemon", "127.0.0.1:7117", "address of the placement daemon (orwlnetd -place -adaptive)")
	peer := flag.String("peer", "", "peer identity in the daemon's lease table (default pid-derived)")
	base := flag.Int("base", 0, "this process's offset in the machine-global task space")
	tasks := flag.Int("tasks", 8, "tasks this process contributes")
	duration := flag.Duration("duration", 10*time.Second, "how long to run")
	shift := flag.Duration("shift", 3*time.Second, "when the traffic pattern shifts from ring to pairs")
	shiftSpan := flag.Float64("shift-span", 1.0, "fraction of this process's tasks the shift touches (the rest keep ringing; small spans make remaps delta-friendly)")
	interval := flag.Duration("interval", 250*time.Millisecond, "observed-window report cadence")
	flag.Parse()
	if *shiftSpan <= 0 || *shiftSpan > 1 {
		log.Fatalf("fleetloop: -shift-span %v outside (0,1]", *shiftSpan)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	sigCtx, sigStop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer sigStop()

	if err := run(sigCtx, *daemon, *peer, *base, *tasks, *shift, *shiftSpan, *interval); err != nil {
		log.Fatalf("fleetloop: %v", err)
	}
}

func run(ctx context.Context, daemon, peer string, base, tasks int, shift time.Duration, shiftSpan float64, interval time.Duration) error {
	prog := orwl.MustProgram(tasks)

	// Transient daemon outages (a restart, a dropped connection) are
	// ridden out by the stub's retries instead of killing the loop.
	remote, err := orwlplace.DialPlacement(ctx, daemon)
	if err != nil {
		return err
	}
	defer remote.Close()

	fa, err := orwlplace.NewFleetAdaptive(ctx, remote, prog, orwlplace.FleetAdaptiveConfig{
		Peer:     peer,
		TaskBase: base,
		Interval: interval,
	})
	if err != nil {
		return err
	}
	fmt.Printf("fleetloop[%s]: leased fleet tasks [%d,%d) as lease %d\n", peer, base, base+tasks, fa.LeaseID())

	// Synthetic traffic: tasks talk in a ring until the shift, then in
	// reversed pairs — a pattern the ring mapping is wrong for, so the
	// daemon's drift measure fires and a remap comes back.
	go generate(ctx, prog, base, tasks, shift, shiftSpan)

	err = fa.Run(ctx, func(ev orwlplace.Remap) {
		fmt.Printf("fleetloop[%s]: applied remap machine=%s epoch=%d drift=%.3f\n", peer, ev.Machine, ev.Epoch, ev.Drift)
	})
	st := fa.Stats()
	fmt.Printf("fleetloop[%s]: done: reports=%d remaps-applied=%d last-epoch=%d dropped-windows=%d re-leases=%d delta-remaps=%d tasks-rebound=%d\n",
		peer, st.Reports, st.Remaps, st.AppliedEpoch, st.DroppedWindows, st.Releases, st.DeltaRemaps, st.TasksRebound)
	if err != nil && ctx.Err() == nil {
		return err
	}
	// A run that never applied a remap means the loop did not close.
	if st.Remaps == 0 {
		fmt.Fprintf(os.Stderr, "fleetloop[%s]: warning: no remap applied\n", peer)
	}
	return nil
}

// generate records the shifting pattern into the program's traffic
// counters. Local task i is fleet task base+i; the patterns are
// expressed in local indices (each process generates only its own
// slice of the machine-wide pattern).
//
// Before the shift every task rings. After it, only the first
// span=tasks*shiftSpan tasks flip to the reversed pairing; the rest
// keep ringing. A small span changes few placements, which is exactly
// what the delta remap push is for — the daemon ships the handful
// of moved tasks instead of the whole assignment.
func generate(ctx context.Context, prog *orwlplace.Program, base, tasks int, shift time.Duration, shiftSpan float64) {
	start := time.Now()
	span := int(float64(tasks) * shiftSpan)
	if span < 2 {
		span = 2 // a pairing needs at least one pair
	}
	if span > tasks {
		span = tasks
	}
	tr := prog.Traffic()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if time.Since(start) < shift {
			for i := 0; i < tasks; i++ {
				tr.Record(i, (i+1)%tasks, 4096)
			}
		} else {
			for i := 0; i < span/2; i++ {
				tr.Record(i, span-1-i, 8192)
			}
			for i := span; i < tasks; i++ {
				tr.Record(i, span+(i+1-span)%(tasks-span), 4096)
			}
		}
	}
}
