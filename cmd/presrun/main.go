// Presrun performs a production run of a corpus application under a
// chosen sketching mechanism, optionally searching schedule seeds until
// a target bug manifests, and writes the recording (sketch + input log)
// to a file for presreplay.
//
// Usage:
//
//	presrun -app mysqld -scheme SYNC -seed 7 -o run.pres
//	presrun -bug mysql-169 -scheme SYNC -o run.pres   # seed search
//	presrun -bug mysql-169 -epoch-steps 64 -epoch-ring 2 -checkpoint-every 1 -o run.pres
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("presrun: ")

	appName := flag.String("app", "", "corpus application to run")
	bugID := flag.String("bug", "", "search seeds until this bug manifests")
	schemeName := flag.String("scheme", "SYNC", "sketching mechanism (BASE|SYNC|SYS|FUNC|BB|RW)")
	seed := flag.Int64("seed", 0, "schedule seed (start of the search with -bug)")
	seedBudget := flag.Int64("seed-budget", 2000, "seeds to try with -bug")
	procs := flag.Int("procs", 4, "modelled processor count")
	scale := flag.Int("scale", 0, "workload scale (0 = app default)")
	worldSeed := flag.Int64("world-seed", 1, "virtual syscall world seed")
	fixed := flag.Bool("fixed", false, "run the patched (bug-free) variant")
	epochSteps := flag.Uint64("epoch-steps", 0, "seal the sketch into epochs of this many committed events (0 = classic whole-execution recording)")
	epochRing := flag.Int("epoch-ring", 0, "retain at most this many epochs, evicting the oldest (0 = unbounded; implies -epoch-steps' default length)")
	cpEvery := flag.Int("checkpoint-every", 0, "capture a world checkpoint every N epoch seals (0 = no checkpoints; implies epoch recording)")
	out := flag.String("o", "", "write the recording to this file")
	// Observability outputs (see OBSERVABILITY.md). The trace gets one
	// "record" event per production run probed, so a seed search leaves
	// a complete audit of what it tried.
	o := obs.AddFlags(flag.CommandLine, "record trace", "write a JSONL trace of every production run probed (see OBSERVABILITY.md)")
	flag.Parse()

	scheme, err := repro.ParseScheme(*schemeName)
	if err != nil {
		log.Fatal(err)
	}

	var prog *repro.Program
	switch {
	case *bugID != "":
		p, ok := repro.ProgramForBug(*bugID)
		if !ok {
			log.Fatalf("unknown bug %q (see preslist)", *bugID)
		}
		prog = p
	case *appName != "":
		p, ok := repro.GetProgram(*appName)
		if !ok {
			log.Fatalf("unknown application %q (see preslist)", *appName)
		}
		prog = p
	default:
		log.Fatal("one of -app or -bug is required")
	}
	if err := o.Open(); err != nil {
		log.Fatal(err)
	}

	opts := repro.Options{
		Scheme:     scheme,
		Processors: *procs,
		WorldSeed:  *worldSeed,
		Scale:      *scale,
		FixBugs:    *fixed,
		Metrics:    o.Registry,
	}
	if *epochSteps > 0 || *epochRing > 0 || *cpEvery > 0 {
		opts.EpochRing = &repro.EpochRingOptions{
			Steps:           *epochSteps,
			Size:            *epochRing,
			CheckpointEvery: *cpEvery,
		}
	}

	traceRecord := func(seed int64, r *repro.Recording, bug bool) {
		if o.Trace == nil {
			return // LogBytes below encodes the whole recording
		}
		outcome := "clean"
		switch {
		case bug:
			outcome = "bug"
		case r.Result.Failure != nil:
			outcome = "failure"
		}
		o.Trace.Emit(repro.RecordEvent{
			Event:         repro.EventRecord,
			Seed:          seed,
			Outcome:       outcome,
			Steps:         r.Result.Steps,
			SketchEntries: r.Sketch.Len(),
			LogBytes:      r.LogBytes(),
		})
	}

	var rec *repro.Recording
	if *bugID != "" {
		oracle := repro.MatchBugID(*bugID)
		for s := *seed; s < *seed+*seedBudget; s++ {
			opts.ScheduleSeed = s
			r := repro.Record(prog, opts)
			hit := false
			if f := r.BugFailure(); f != nil && oracle(f) {
				hit = true
			}
			traceRecord(s, r, hit)
			if hit {
				fmt.Printf("bug %s manifested at seed %d: %v\n", *bugID, s, r.BugFailure())
				rec = r
				break
			}
		}
		if rec == nil {
			log.Printf("bug %s did not manifest in %d seeds", *bugID, *seedBudget)
			o.Exit(1)
		}
	} else {
		opts.ScheduleSeed = *seed
		rec = repro.Record(prog, opts)
		traceRecord(*seed, rec, rec.BugFailure() != nil)
		if f := rec.Result.Failure; f != nil {
			fmt.Printf("run failed: %v\n", f)
		} else {
			fmt.Println("run completed cleanly")
		}
	}

	fmt.Printf("app=%s scheme=%v steps=%d sketch-entries=%d (density %.4f) log-bytes=%d overhead=%.2f%%\n",
		prog.Name, scheme, rec.Result.Steps, rec.Sketch.Len(),
		float64(rec.Sketch.Len())/float64(max(rec.Sketch.TotalOps, 1)),
		rec.LogBytes(), rec.Result.Overhead()*100)
	if ring := rec.Epochs; ring != nil {
		fmt.Printf("epochs: %d retained (+%d evicted), %d checkpoints, window=%d entries\n",
			len(ring.Epochs), ring.Evicted, len(ring.Checkpoints), ring.WindowLen())
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			o.Fatal(err)
		}
		if err := rec.Write(f); err != nil {
			o.Fatal(err)
		}
		if err := f.Close(); err != nil {
			o.Fatal(err)
		}
		fmt.Printf("recording written to %s\n", *out)
		fmt.Printf("replay with: presreplay -app %s -seed %d -world-seed %d -procs %d -scale %d",
			prog.Name, rec.Options.ScheduleSeed, *worldSeed, *procs, *scale)
		if *bugID != "" {
			fmt.Printf(" -bug %s", *bugID)
		}
		fmt.Printf(" %s\n", *out)
	}

	o.Exit(0)
}
