// Presbench regenerates every table and figure of the paper's
// evaluation (experiments E1-E10, E12 and E13 in DESIGN.md;
// paper-vs-measured is recorded in EXPERIMENTS.md).
//
// Usage:
//
//	presbench                 # all experiments
//	presbench -exp e1         # one experiment
//	presbench -exp e1 -schemes SYNC,SYS -procs 8
//	presbench -j 1            # sequential cells (same tables, slower)
//	presbench -scenarios      # only the failure-injection matrix + generator sweep (E12)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sketch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("presbench: ")

	exp := flag.String("exp", "all", "experiment to run: e1..e10, e12, e13 or all")
	schemeList := flag.String("schemes", "", "comma-separated scheme subset (default: all); E3 and E7 render E2's runs and E8 E1's SYNC runs, so E7 prints only if the subset includes RW and E8 only if it includes SYNC (otherwise each prints a one-line note)")
	procs := flag.Int("procs", 4, "modelled processor count")
	budget := flag.Int("max-attempts", 1000, "replay attempt budget")
	seedBudget := flag.Int("seed-budget", 2000, "production seeds to search per bug")
	overheadScale := flag.Int("overhead-scale", 800, "workload scale for overhead/log-size runs")
	replays := flag.Int("e6-replays", 100, "re-replays per bug in E6")
	jobs := flag.Int("j", 0, "experiment cells run in parallel (0 = GOMAXPROCS, 1 = sequential; tables are identical at any value)")
	workers := flag.Int("workers", 0, "attempts run at once per replay search (0 = one; wall clock only: every value runs the same search)")
	timeout := flag.Duration("timeout", 0, "wall-clock bound on the whole run (0 = none); SIGINT also cancels gracefully")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	scenarios := flag.Bool("scenarios", false, "run only the failure-injection scenarios (shorthand for -exp e12)")
	genSweep := flag.Int("gen-sweep", 50, "generated-program seeds verified by E12's generator sweep")
	epochRing := flag.Int("epoch-ring", 2, "epoch-ring capacity (retained epochs) for E13's always-on recordings")
	cpEvery := flag.Int("checkpoint-every", 1, "checkpoint cadence in epoch rolls for E13's always-on recordings")
	o := obs.AddFlags(flag.CommandLine, "attempt trace", "write a JSONL trace of every replay attempt across all experiments")
	flag.Parse()

	if *scenarios {
		*exp = "e12"
	}
	var schemes []sketch.Scheme
	if *schemeList != "" {
		for _, name := range strings.Split(*schemeList, ",") {
			s, err := sketch.Parse(strings.TrimSpace(name))
			if err != nil {
				log.Fatal(err)
			}
			schemes = append(schemes, s)
		}
	}
	// cfg is set once the outputs are open; E1's and E2's rows are
	// computed at most once per run, and every table that needs them
	// (E8 from E1's; E3 and E7 from E2's) renders that one run.
	var cfg harness.Config
	e1Schemes := schemes
	if strings.EqualFold(*exp, "e8") {
		// Alone, E8 needs only E1's SYNC column, if the subset has one.
		e1Schemes = []sketch.Scheme{}
		if schemes == nil || slices.Contains(schemes, sketch.SYNC) {
			e1Schemes = []sketch.Scheme{sketch.SYNC}
		}
	}
	e1 := sync.OnceValue(func() []harness.E1Row { return harness.RunE1(e1Schemes, cfg) })
	e2 := sync.OnceValue(func() []harness.E2Row { return harness.RunE2(schemes, cfg) })
	experiments := []struct {
		id, title string
		run       func() any
	}{
		{"e1", "replay attempts to reproduce each bug, per sketching mechanism", func() any {
			rows := e1()
			if !*asJSON {
				harness.PrintE1(os.Stdout, rows, cfg)
			}
			return rows
		}},
		{"e2", "production-run recording overhead, per app and mechanism", func() any {
			rows := e2()
			if !*asJSON {
				harness.PrintE2(os.Stdout, rows)
			}
			return rows
		}},
		{"e3", "sketch/input log sizes, per app and mechanism", func() any {
			rows := e2()
			if !*asJSON {
				harness.PrintE3(os.Stdout, rows)
			}
			return rows
		}},
		{"e4", "scalability with processor count (SYNC)", func() any {
			rows := harness.RunE4(nil, nil, cfg)
			if !*asJSON {
				harness.PrintE4(os.Stdout, rows, cfg)
			}
			return rows
		}},
		{"e5", "feedback-directed search vs. random exploration", func() any {
			rows := harness.RunE5(nil, cfg)
			if !*asJSON {
				harness.PrintE5(os.Stdout, rows, cfg)
			}
			return rows
		}},
		{"e6", "reproduce-every-time after first success", func() any {
			rows := harness.RunE6(nil, *replays, cfg)
			if !*asJSON {
				harness.PrintE6(os.Stdout, rows)
			}
			return rows
		}},
		{"e7", "recording-overhead reduction vs. full RW recording", func() any {
			rows := e2()
			if !*asJSON {
				harness.PrintE7(os.Stdout, rows)
			}
			return rows
		}},
		{"e8", "replayer search statistics (SYNC)", func() any {
			rows := e1()
			if !*asJSON {
				harness.PrintE8(os.Stdout, rows)
			}
			return rows
		}},
		{"e9", "sketch-log truncation (extension): attempts vs retained tail", func() any {
			rows := harness.RunE9(nil, nil, cfg)
			if !*asJSON {
				harness.PrintE9(os.Stdout, rows, cfg)
			}
			return rows
		}},
		{"e10", "canonical bug-pattern matrix (extension)", func() any {
			rows := harness.RunE10(schemes, cfg)
			if !*asJSON {
				harness.PrintE10(os.Stdout, rows, cfg)
			}
			return rows
		}},
		{"e12", "failure-injection matrix and generated-program sweep (extension)", func() any {
			rows := harness.RunE12(cfg)
			gen := harness.RunE12Gen(*genSweep, cfg)
			if !*asJSON {
				harness.PrintE12(os.Stdout, rows)
				fmt.Println()
				harness.PrintE12Gen(os.Stdout, gen)
			}
			return map[string]any{"matrix": rows, "gen": gen}
		}},
		{"e13", "always-on epoch-ring recording: attempts and window size vs epoch length (extension)", func() any {
			rows := harness.RunE13(nil, nil, *epochRing, *cpEvery, cfg)
			if !*asJSON {
				harness.PrintE13(os.Stdout, rows, cfg)
			}
			return rows
		}},
	}
	var ids []string
	for _, e := range experiments {
		ids = append(ids, e.id)
	}
	ids = append(ids, "all")
	if !slices.ContainsFunc(ids, func(id string) bool { return strings.EqualFold(id, *exp) }) {
		fmt.Fprintf(os.Stderr, "presbench: unknown experiment -exp %s (valid: %s)\n", *exp, strings.Join(ids, ", "))
		os.Exit(2)
	}
	if *asJSON {
		o.Report = io.Discard // stdout is the JSON document
	}
	if err := o.Open(); err != nil {
		log.Fatal(err)
	}

	// The run context: -timeout bounds the wall clock, SIGINT cancels
	// cooperatively. Every seed search, recording and replay the harness
	// performs observes it, so a cancelled run still renders the rows it
	// finished and closes its outputs.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt)
	defer stop()

	cfg = harness.Config{
		Ctx:           ctx,
		Processors:    *procs,
		MaxAttempts:   *budget,
		SeedBudget:    *seedBudget,
		OverheadScale: *overheadScale,
		Jobs:          *jobs,
		Workers:       *workers,
		Metrics:       o.Registry,
		Trace:         o.Trace,
	}

	results := map[string]any{}
	for _, e := range experiments {
		if *exp != "all" && !strings.EqualFold(*exp, e.id) {
			continue
		}
		if ctx.Err() != nil {
			// The run was cancelled: skip remaining experiments instead of
			// rendering tables of zero-valued cells.
			break
		}
		start := time.Now()
		if !*asJSON {
			fmt.Printf("== %s: %s ==\n", strings.ToUpper(e.id), e.title)
		}
		results[e.id] = e.run()
		if !*asJSON {
			fmt.Printf("(%s in %v)\n\n", strings.ToUpper(e.id), time.Since(start).Round(time.Millisecond))
		}
	}

	interrupted := ctx.Err() != nil
	if interrupted && !*asJSON {
		fmt.Printf("run interrupted (%v): remaining experiments skipped, partial results above\n\n", ctx.Err())
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			o.Fatal(err)
		}
	} else if reg := o.Registry; reg != nil {
		fmt.Println("== aggregate metrics ==")
		harness.PrintMetrics(os.Stdout, reg.Snapshot())
	}
	o.Exit(0)
}
