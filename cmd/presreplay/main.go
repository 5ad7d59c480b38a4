// Presreplay runs the PRES intelligent replayer on a recording written
// by presrun: it explores the unrecorded non-deterministic space with
// feedback from failed attempts until the bug reproduces, then verifies
// the captured full order replays deterministically.
//
// Usage:
//
//	presreplay -app mysqld -bug mysql-169 run.pres
//	presreplay -app mysqld -bug mysql-169 -seed 7 run.pres
//
// The recording decides where replay starts. An epoch-ring recording
// (presrun -epoch-steps/-epoch-ring/-checkpoint-every) that carries a
// checkpoint starts every attempt at the newest one, which needs the
// recording's schedule seed (-seed) to re-execute the prefix
// deterministically, so such a recording without -seed is a usage
// error (exit 2); a ring that evicted its head without one is
// replayed with its retained window as a soft guide.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"repro"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("presreplay: ")

	appName := flag.String("app", "", "corpus application the recording is of")
	bugID := flag.String("bug", "", "target bug id (empty accepts any manifested bug)")
	procs := flag.Int("procs", 4, "processor count used for the recording")
	scale := flag.Int("scale", 0, "workload scale used for the recording")
	worldSeed := flag.Int64("world-seed", 1, "world seed used for the recording")
	seed := flag.Int64("seed", 0, "schedule seed used for the recording (required for any checkpointed recording)")
	maxAttempts := flag.Int("max-attempts", 1000, "replay attempt budget")
	noFeedback := flag.Bool("no-feedback", false, "disable feedback (random exploration ablation)")
	verify := flag.Int("verify", 3, "re-replays of the captured order after success")
	simplify := flag.Bool("simplify", true, "minimize context switches in the captured schedule")
	workers := flag.Int("workers", 1, "attempts run at once (wall clock only: every value runs the same search)")
	prefixSnaps := flag.Bool("prefix-snapshots", false, "resume child attempts from shared-prefix snapshots instead of re-executing from step 0")
	snapBudget := flag.Int64("snapshot-budget", 0, "prefix-snapshot cache budget in bytes (0 = 64 MiB default)")
	timeout := flag.Duration("timeout", 0, "wall-clock bound on the search (0 = none); SIGINT also cancels gracefully")
	verbose := flag.Bool("v", false, "print each replay attempt as it completes")
	// Observability outputs (see OBSERVABILITY.md for the contract).
	// They are closed on every exit path, including a failed search — a
	// search that exhausted its budget is exactly the one worth diffing
	// against a run that succeeded.
	o := obs.AddFlags(flag.CommandLine, "attempt trace", "write a JSONL attempt trace to this file (see OBSERVABILITY.md)")
	flag.Parse()

	if *appName == "" || flag.NArg() != 1 {
		log.Fatal("usage: presreplay -app <name> [-bug <id>] <recording-file>")
	}
	prog, ok := repro.GetProgram(*appName)
	if !ok {
		log.Fatalf("unknown application %q (see preslist)", *appName)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	rec, err := repro.ReadRecording(f, repro.Options{
		Processors:   *procs,
		WorldSeed:    *worldSeed,
		Scale:        *scale,
		ScheduleSeed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := rec.Validate(); err != nil {
		log.Fatalf("recording failed validation: %v", err)
	}
	fmt.Printf("recording: scheme=%v entries=%d inputs=%d\n",
		rec.Scheme, rec.Sketch.Len(), rec.Inputs.Len())
	if ring := rec.Epochs; ring != nil {
		fmt.Printf("epochs: %d retained (+%d evicted), %d checkpoints, window=%d entries\n",
			len(ring.Epochs), ring.Evicted, len(ring.Checkpoints), ring.WindowLen())
		if cp, ok := ring.LastCheckpoint(); ok {
			if !flagSet("seed") {
				// Without the recording's schedule seed the prefix would
				// re-execute under seed 0 and every attempt would diverge
				// at the checkpoint.
				log.Print("the recording carries a checkpoint, so replaying it needs the recording's schedule seed: " +
					"pass -seed, as in presrun's \"replay with: presreplay ...\" line")
				os.Exit(2)
			}
			fmt.Printf("replaying from checkpoint at epoch %d (step %d, %d inputs consumed)\n",
				cp.Epoch, cp.Step, cp.InputIndex)
		}
	}

	// The search context: -timeout bounds the wall clock, and SIGINT
	// cancels cooperatively — either way the pool drains, the committed
	// attempt prefix is reported, and the outputs are still closed.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()

	var oracle repro.Oracle
	if *bugID != "" {
		oracle = repro.MatchBugID(*bugID)
	}
	ropts := repro.ReplayOptions{
		Feedback:            !*noFeedback,
		MaxAttempts:         *maxAttempts,
		Oracle:              oracle,
		Workers:             *workers,
		PrefixSnapshots:     *prefixSnaps,
		SnapshotBudgetBytes: *snapBudget,
	}
	if *verbose {
		ropts.OnAttempt = func(i int, mode, outcome string) {
			fmt.Printf("  attempt %-4d %-8s %s\n", i, mode, outcome)
		}
	}

	if err := o.Open(); err != nil {
		log.Fatal(err)
	}
	ropts.Metrics = o.Registry
	ropts.Trace = o.Trace

	res := repro.ReplayContext(ctx, prog, rec, ropts)
	if !res.Reproduced {
		switch {
		case errors.Is(res.Err, repro.ErrCheckpointMismatch):
			fmt.Printf("search stopped after %d attempts: %v (%+v)\n", res.Attempts, res.Err, res.Stats)
			fmt.Printf("advice: %s\n", repro.Advise(rec, res))
		case res.Err != nil:
			fmt.Printf("search interrupted (%v) after %d committed attempts (%+v)\n",
				res.Err, res.Attempts, res.Stats)
		default:
			fmt.Printf("NOT reproduced within %d attempts (%+v)\n", res.Attempts, res.Stats)
			fmt.Printf("advice: %s\n", repro.Advise(rec, res))
		}
		o.Exit(1)
	}
	fmt.Printf("reproduced in %d attempts (%d race flips): %v\n", res.Attempts, res.Flips, res.Failure)
	if res.Stats.Steps > 0 {
		fmt.Printf("  scheduler: %d steps, %d handoffs (%.3f/step)\n",
			res.Stats.Steps, res.Stats.Handoffs,
			float64(res.Stats.Handoffs)/float64(res.Stats.Steps))
	}
	if *prefixSnaps {
		st := res.Stats
		fmt.Printf("  snapshots: %d hits, %d misses, %d captured (%d bytes, %d evicted), %d/%d steps fast-forwarded\n",
			st.SnapshotHits, st.SnapshotMisses, st.SnapshotCaptures,
			st.SnapshotBytes, st.SnapshotEvicted, st.FastForwardSteps, st.Steps)
	}
	for _, rc := range res.RootCauses {
		fmt.Printf("  root-cause race: %v\n", rc)
	}

	ok = true
	for i := 0; i < *verify; i++ {
		out := repro.Reproduce(prog, rec, res.Order)
		if out.Failure == nil || !out.Failure.IsBug() {
			ok = false
			break
		}
	}
	if !ok {
		o.Fatal("captured order did not re-reproduce — this is a bug in the replayer")
	}
	fmt.Printf("captured order re-reproduced the failure %d/%d times\n", *verify, *verify)

	if *simplify {
		before := repro.Switches(res.Order)
		simple, spent := repro.Simplify(prog, rec, res.Order, 0)
		fmt.Printf("simplified schedule: %d -> %d context switches (%d re-executions)\n",
			before, repro.Switches(simple), spent)
	}

	o.Exit(0)
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}
