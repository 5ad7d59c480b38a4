package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// TestRunE12 runs E12 as presbench does: the generator sweep at its
// default 50 seeds, each template's programs as published in
// EXPERIMENTS.md, all reproduced, timed under the e12gen label.
func TestRunE12(t *testing.T) {
	cfg := fastCfg
	cfg.Metrics = obs.NewRegistry()
	rows := RunE12Gen(0, cfg)
	want := map[string]int{"lostload": 14, "livelock": 17, "aba": 12, "dcl": 7}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if r.Programs != want[r.Template] {
			t.Errorf("template %s: %d programs, want %d", r.Template, r.Programs, want[r.Template])
		}
		if r.Reproduced != r.Programs {
			t.Errorf("template %s: %d/%d reproduced (failing seeds %v)",
				r.Template, r.Reproduced, r.Programs, r.FailSeeds)
		}
	}
	if got := cfg.Metrics.Snapshot().Counters[`pres_harness_experiments_total{exp="e12gen"}`]; got != 1 {
		t.Fatalf("e12gen experiment counted %d times, want 1", got)
	}
}

func TestRunE12Gen(t *testing.T) {
	rows := RunE12Gen(6, fastCfg)
	if len(rows) != len(scenario.Templates()) {
		t.Fatalf("rows = %d, want one per template", len(rows))
	}
	total := 0
	for _, r := range rows {
		total += r.Programs
		if r.Programs != r.Reproduced {
			t.Errorf("template %s: %d/%d reproduced (failing seeds %v)",
				r.Template, r.Reproduced, r.Programs, r.FailSeeds)
		}
	}
	if total != 6 {
		t.Fatalf("aggregated %d programs, want 6", total)
	}
	var buf bytes.Buffer
	PrintE12Gen(&buf, rows)
	if !strings.Contains(buf.String(), "lostload") {
		t.Fatal("E12 gen rendering broken")
	}
}
