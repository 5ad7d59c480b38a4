// Preslist lists the evaluation corpus: the 11 applications and 13
// real-world concurrency bugs modelled from the paper. Given a
// recording file, it instead inspects the recording's structure —
// for an epoch-ring recording (presrun -epoch-steps) the epoch map:
// epoch count, ring occupancy, checkpoint positions and bytes per
// epoch; classic v1/v2 recordings are summarized whole.
//
// Usage:
//
//	preslist [-bugs] [-apps]
//	preslist run.pres
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro"
	"repro/internal/harness"
	"repro/internal/sketch"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("preslist: ")

	bugsOnly := flag.Bool("bugs", false, "list only the bugs")
	appsOnly := flag.Bool("apps", false, "list only the applications")
	stats := flag.Bool("stats", false, "profile each application's production workload")
	flag.Parse()

	if flag.NArg() == 1 {
		inspect(flag.Arg(0))
		return
	}
	if flag.NArg() > 1 {
		log.Fatal("usage: preslist [-bugs|-apps|-stats] [recording-file]")
	}

	if *stats {
		harness.PrintAppStats(os.Stdout, harness.CollectAppStats(harness.Config{}))
		return
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush()

	if !*bugsOnly {
		fmt.Fprintln(w, "APPLICATION\tCATEGORY\tBUGS")
		for _, p := range repro.Programs() {
			fmt.Fprintf(w, "%s\t%s\t%v\n", p.Name, p.Category, p.Bugs)
		}
		if !*appsOnly {
			fmt.Fprintln(w)
		}
	}
	if !*appsOnly {
		fmt.Fprintln(w, "BUG\tAPP\tTYPE\tDESCRIPTION")
		for _, b := range repro.Bugs() {
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", b.ID, b.App, b.Type, b.Description)
		}
	}
}

// inspect prints a recording file's structure. Epoch-ring recordings
// get the full epoch map; classic (whole-execution, v1 or v2)
// recordings get the flat summary.
func inspect(path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	rec, err := repro.ReadRecording(f, repro.Options{})
	if err != nil {
		log.Fatal(err)
	}

	format := "classic (whole-execution)"
	if rec.Epochs != nil {
		format = "epoch container"
	}
	fmt.Printf("%s: %s\n", path, format)
	fmt.Printf("scheme=%v sketch-entries=%d (of %d instrumented ops, %d records) inputs=%d log-bytes=%d\n",
		rec.Scheme, rec.Sketch.Len(), rec.Sketch.TotalOps, rec.Sketch.Records,
		rec.Inputs.Len(), rec.LogBytes())

	ring := rec.Epochs
	if ring == nil {
		return
	}

	capacity := "unbounded"
	if ring.Size > 0 {
		capacity = fmt.Sprintf("%d", ring.Size)
	}
	fmt.Printf("ring: %d/%s epochs retained, %d evicted (%d entries dropped)\n",
		len(ring.Epochs), capacity, ring.Evicted, ring.EvictedEntries)

	// Checkpoints are indexed by the epoch they precede; a replayer
	// starting from one re-executes cp.Step events and then enforces
	// only the window at or after cp.SketchIndex. cp.InputIndex indexes
	// the retained input log, which a fresh recording starts at its
	// oldest retained checkpoint when the ring is sure to keep one.
	cpBefore := map[uint64]int{}
	for i, cp := range ring.Checkpoints {
		cpBefore[cp.Epoch] = i
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "EPOCH\tSTART-STEP\tENTRIES\tBYTES\tCHECKPOINT")
	for _, e := range ring.Epochs {
		mark := ""
		if i, ok := cpBefore[e.ID]; ok {
			cp := ring.Checkpoints[i]
			mark = fmt.Sprintf("at entry (step %d, retained input %d, world %016x", cp.Step, cp.InputIndex, cp.WorldDigest)
			if len(cp.World) > 0 {
				// Recordings from before digest-only checkpoints.
				mark += fmt.Sprintf(", legacy blob %d B", len(cp.World))
			}
			mark += ")"
		}
		bytes := sketch.EncodedSize(&trace.SketchLog{
			Scheme:  ring.Scheme,
			Entries: e.Entries,
		})
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\n", e.ID, e.StartStep, len(e.Entries), bytes, mark)
	}
	w.Flush()

	if len(ring.Checkpoints) == 0 {
		fmt.Println("checkpoints: none")
		return
	}
	last := ring.Checkpoints[len(ring.Checkpoints)-1]
	fmt.Printf("checkpoints: %d retained; newest before epoch %d (step %d, sketch %d, retained input %d of %d)\n",
		len(ring.Checkpoints), last.Epoch, last.Step, last.SketchIndex, last.InputIndex, rec.Inputs.Len())
}
