package harness

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/patterns"
	"repro/internal/scenario"
	"repro/internal/sketch"
)

// fastCfg keeps harness tests quick; experiment-scale runs live in the
// benchmarks.
var fastCfg = Config{SeedBudget: 2000, MaxAttempts: 1000, OverheadScale: 250}

// e1Rows and e2Rows run E1 (SYNC and RW) and E2 (every scheme) once
// for the whole package: E8's table renders E1's SYNC rows, and E3's
// and E7's render E2's, exactly as presbench shares them.
var (
	e1Rows = sync.OnceValue(func() []E1Row { return RunE1([]sketch.Scheme{sketch.SYNC, sketch.RW}, fastCfg) })
	e2Rows = sync.OnceValue(func() []E2Row { return RunE2(nil, fastCfg) })
)

func TestFindBuggySeed(t *testing.T) {
	prog, _ := apps.Get("fft")
	seed, rec, err := FindBuggySeed(prog, "fft-barrier", sketch.SYNC, fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	if seed < 0 || rec.BugFailure() == nil {
		t.Fatalf("seed=%d failure=%v", seed, rec.Result.Failure)
	}
}

func TestFindBuggySeedUnknownNeverManifests(t *testing.T) {
	prog, _ := apps.Get("fft")
	cfg := fastCfg
	cfg.SeedBudget = 5
	if _, _, err := FindBuggySeed(prog, "not-a-bug", sketch.SYNC, cfg); err == nil {
		t.Fatal("expected failure for unknown bug id")
	}
}

func TestReproduceBugPipeline(t *testing.T) {
	rec, res, err := ReproduceBug("transmission-1818", sketch.SYNC, fastCfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.BugFailure() == nil || !res.Reproduced {
		t.Fatalf("pipeline broke: rec failure %v, reproduced %v", rec.Result.Failure, res.Reproduced)
	}
}

func TestReproduceBugUnknown(t *testing.T) {
	if _, _, err := ReproduceBug("nope", sketch.SYNC, fastCfg); err == nil {
		t.Fatal("unknown bug should error")
	}
}

func TestRunE1Subset(t *testing.T) {
	// Two schemes keep this quick; the full sweep runs in benches.
	rows := e1Rows()
	if len(rows) != 2*len(apps.AllBugs()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Err != nil {
			t.Errorf("%s/%v: %v", r.Bug.ID, r.Scheme, r.Err)
			continue
		}
		if !r.Reproduced {
			t.Errorf("%s not reproduced under %v", r.Bug.ID, r.Scheme)
		}
	}
	var buf bytes.Buffer
	PrintE1(&buf, rows, fastCfg)
	if !strings.Contains(buf.String(), "mysql-169") || !strings.Contains(buf.String(), "RW") {
		t.Fatalf("table rendering broken:\n%s", buf.String())
	}
}

func TestRunE2OverheadShape(t *testing.T) {
	rows := e2Rows()
	if len(rows) != 11*len(sketch.All()) {
		t.Fatalf("rows = %d", len(rows))
	}
	// The paper's central claim: per app, BASE = 0 and SYNC << RW.
	byApp := map[string]map[sketch.Scheme]float64{}
	for _, r := range rows {
		if r.Err != nil {
			t.Fatalf("%s/%v: %v", r.App, r.Scheme, r.Err)
		}
		if byApp[r.App] == nil {
			byApp[r.App] = map[sketch.Scheme]float64{}
		}
		byApp[r.App][r.Scheme] = r.Overhead
	}
	for app, m := range byApp {
		if !(m[sketch.BASE] > 0 && m[sketch.BASE] <= m[sketch.SYNC]) {
			t.Errorf("%s: BASE overhead %v should be positive (substrate) and <= SYNC %v",
				app, m[sketch.BASE], m[sketch.SYNC])
		}
		if !(m[sketch.SYNC] < m[sketch.RW]) {
			t.Errorf("%s: SYNC (%.3f) not below RW (%.3f)", app, m[sketch.SYNC], m[sketch.RW])
		}
		if !(m[sketch.SYS] < m[sketch.RW]) {
			t.Errorf("%s: SYS (%.3f) not below RW (%.3f)", app, m[sketch.SYS], m[sketch.RW])
		}
		if m[sketch.RW] < 1.0 {
			t.Errorf("%s: RW overhead %.3f suspiciously low (<100%%)", app, m[sketch.RW])
		}
	}
	var buf bytes.Buffer
	PrintE2(&buf, rows)
	if !strings.Contains(buf.String(), "mysqld") {
		t.Fatal("E2 table rendering broken")
	}
}

func TestRunE3LogSizes(t *testing.T) {
	rows := e2Rows()
	bySchemeTotal := map[sketch.Scheme]int{}
	for _, r := range rows {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.App, r.Err)
		}
		bySchemeTotal[r.Scheme] += r.SketchBytes
	}
	if !(bySchemeTotal[sketch.BASE] < bySchemeTotal[sketch.SYNC] &&
		bySchemeTotal[sketch.SYNC] < bySchemeTotal[sketch.RW]) {
		t.Fatalf("log size ordering broken: %v", bySchemeTotal)
	}
	var buf bytes.Buffer
	PrintE3(&buf, rows)
	if !strings.Contains(buf.String(), "bytes/kop") {
		t.Fatal("E3 table rendering broken")
	}
}

func TestRunE4Scalability(t *testing.T) {
	rows := RunE4([]int{2, 8}, []string{"fft-barrier"}, fastCfg)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Err != nil {
			t.Fatalf("procs %d: %v", r.Procs, r.Err)
		}
		if !r.Repro {
			t.Errorf("procs %d: not reproduced", r.Procs)
		}
	}
	var buf bytes.Buffer
	PrintE4(&buf, rows, fastCfg)
	if !strings.Contains(buf.String(), "procs") {
		t.Fatal("E4 table rendering broken")
	}
}

func TestRunE5FeedbackAblation(t *testing.T) {
	// Random exploration can get lucky on any single bug; the paper's
	// claim — feedback is critical — is aggregate.
	bugs := []string{"lu-atomicity", "cherokee-326", "fft-barrier"}
	rows := RunE5(bugs, fastCfg)
	if len(rows) != len(bugs) {
		t.Fatalf("rows = %d", len(rows))
	}
	withTotal, withoutTotal := 0, 0
	for _, r := range rows {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if !r.WithFeedbackOK {
			t.Fatalf("%s: feedback mode failed", r.Bug)
		}
		withTotal += r.WithFeedback
		if !r.WithoutFeedbackOK {
			withoutTotal += fastCfg.maxAttempts() // budget exhausted
		} else {
			withoutTotal += r.WithoutFeedback
		}
	}
	if withoutTotal < withTotal {
		t.Fatalf("no-feedback total (%d) beat feedback total (%d)", withoutTotal, withTotal)
	}
	var buf bytes.Buffer
	PrintE5(&buf, rows, fastCfg)
	if !strings.Contains(buf.String(), "feedback") {
		t.Fatal("E5 table rendering broken")
	}
}

func TestRunE6Determinism(t *testing.T) {
	rows := RunE6([]string{"fft-barrier"}, 10, fastCfg)
	if len(rows) != 1 || rows[0].Err != nil {
		t.Fatalf("rows = %+v", rows)
	}
	if !rows[0].AllRepro {
		t.Fatal("captured order did not reproduce every time")
	}
	var buf bytes.Buffer
	PrintE6(&buf, rows)
	if !strings.Contains(buf.String(), "re-replays") {
		t.Fatal("E6 table rendering broken")
	}
}

func TestRunE7Headline(t *testing.T) {
	rows := e2Rows()
	rw := map[string]float64{}
	for _, r := range rows {
		if r.Err != nil {
			t.Fatalf("%s/%v: %v", r.App, r.Scheme, r.Err)
		}
		if r.Scheme == sketch.RW {
			rw[r.App] = r.Overhead
		}
	}
	maxRed := 0.0
	for _, r := range rows {
		if r.Scheme == sketch.SYNC || r.Scheme == sketch.SYS {
			maxRed = max(maxRed, rw[r.App]/r.Overhead)
		}
	}
	// The paper's headline is 4416x; our substrate must show the same
	// orders-of-magnitude shape (>=100x somewhere).
	if maxRed < 100 {
		t.Fatalf("max SYNC/SYS reduction %.0fx; expected >= 100x", maxRed)
	}
	var buf bytes.Buffer
	PrintE7(&buf, rows)
	if want := fmt.Sprintf("records %.0fx cheaper than RW", maxRed); !strings.Contains(buf.String(), want) {
		t.Fatalf("E7 headline lacks %q:\n%s", want, buf.String())
	}
	if strings.Contains(buf.String(), "BASE") {
		t.Fatalf("E7 lists BASE, which records nothing to reduce:\n%s", buf.String())
	}
	// Without RW there is no denominator: a note, not a table.
	buf.Reset()
	PrintE7(&buf, slices.DeleteFunc(slices.Clone(rows), func(r E2Row) bool { return r.Scheme == sketch.RW }))
	if got := buf.String(); strings.Count(got, "\n") != 1 || !strings.Contains(got, "RW") {
		t.Fatalf("E7 without RW rows printed:\n%s", got)
	}
}

func TestRunE8Stats(t *testing.T) {
	rows := e1Rows()
	var buf bytes.Buffer
	PrintE8(&buf, rows)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(apps.AllBugs()) || !strings.Contains(lines[0], "races seen") {
		t.Fatalf("E8 should render one row per bug's SYNC search:\n%s", buf.String())
	}
	for _, r := range rows {
		if r.Scheme != sketch.SYNC {
			continue
		}
		want := fmt.Sprintf("%s %d %d %d %d %d true", r.Bug.ID, r.Attempts, r.Flips,
			r.Stats.RacesSeen, r.Stats.Divergences, r.Stats.CleanRuns)
		if !slices.ContainsFunc(lines, func(ln string) bool { return strings.Join(strings.Fields(ln), " ") == want }) {
			t.Errorf("E8 lacks the row %q", want)
		}
	}
	// Without SYNC there is nothing to report: a note, not a table.
	buf.Reset()
	PrintE8(&buf, slices.DeleteFunc(slices.Clone(rows), func(r E1Row) bool { return r.Scheme == sketch.SYNC }))
	if got := buf.String(); strings.Count(got, "\n") != 1 || !strings.Contains(got, "SYNC") {
		t.Fatalf("E8 without SYNC rows printed:\n%s", got)
	}
}

func TestRunE9Truncation(t *testing.T) {
	rows := RunE9([]string{"fft-barrier"}, []int{100, 25}, fastCfg)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if !r.Reproduced {
			t.Errorf("retained %d%%: not reproduced", r.Retained)
		}
	}
	var buf bytes.Buffer
	PrintE9(&buf, rows, fastCfg)
	if !strings.Contains(buf.String(), "retained") {
		t.Fatal("E9 rendering broken")
	}
}

func TestCollectAppStats(t *testing.T) {
	cfg := fastCfg
	cfg.OverheadScale = 60
	rows := CollectAppStats(cfg)
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Threads < 3 || r.Events == 0 || r.Work == 0 {
			t.Errorf("%s: empty profile %+v", r.App, r)
		}
		total := r.MemPct + r.SyncPct + r.SysPct + r.CtlPct
		if total < 50 || total > 101 {
			t.Errorf("%s: mix sums to %.1f%%", r.App, total)
		}
	}
	var buf bytes.Buffer
	PrintAppStats(&buf, rows)
	if !strings.Contains(buf.String(), "mysqld") || !strings.Contains(buf.String(), "sync%") {
		t.Fatal("app stats rendering broken")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.processors() != 4 || c.seedBudget() != 2000 ||
		c.maxAttempts() != 1000 || c.overheadScale() != 800 {
		t.Fatal("defaults wrong")
	}
	c = Config{Processors: 2, SeedBudget: 5, MaxAttempts: 7, OverheadScale: 13}
	if c.processors() != 2 || c.seedBudget() != 5 ||
		c.maxAttempts() != 7 || c.overheadScale() != 13 {
		t.Fatal("explicit values not honored")
	}
}

func TestRunE6NotReproducedPath(t *testing.T) {
	// An unknown bug id exercises the error path of E6.
	rows := RunE6([]string{"no-such-bug"}, 2, fastCfg)
	if len(rows) != 1 || rows[0].Err == nil {
		t.Fatalf("rows = %+v", rows)
	}
	var buf bytes.Buffer
	PrintE6(&buf, rows)
	if !strings.Contains(buf.String(), "n/a") {
		t.Fatal("error row not rendered")
	}
}

func TestRunE10Patterns(t *testing.T) {
	rows := RunE10([]sketch.Scheme{sketch.SYNC}, fastCfg)
	if want := len(patterns.All()) + len(scenario.Templates()); len(rows) != want {
		t.Fatalf("rows = %d, want %d: one per catalog pattern and generator template", len(rows), want)
	}
	for _, r := range rows {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Pattern, r.Err)
			continue
		}
		if !r.Reproduced {
			t.Errorf("%s: not reproduced", r.Pattern)
		}
	}
	var buf bytes.Buffer
	PrintE10(&buf, rows, fastCfg)
	if !strings.Contains(buf.String(), "abba-deadlock") || !strings.Contains(buf.String(), "lostload/gen-55") {
		t.Fatal("E10 rendering broken")
	}
}
