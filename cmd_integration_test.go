package repro_test

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro"
)

// TestCommandLineWorkflow builds the real binaries and drives the full
// record -> inspect -> replay workflow through their public interfaces.
func TestCommandLineWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"preslist", "presrun", "presreplay", "prestrace", "presbench"} {
		bin := filepath.Join(dir, name)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}
	run := func(name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(bins[name], args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	if out := run("preslist"); !strings.Contains(out, "mysqld") || !strings.Contains(out, "radix-deadlock") {
		t.Fatalf("preslist output:\n%s", out)
	}

	recFile := filepath.Join(dir, "run.pres")
	out := run("presrun", "-bug", "fft-barrier", "-scheme", "SYNC", "-o", recFile)
	if !strings.Contains(out, "manifested") {
		t.Fatalf("presrun output:\n%s", out)
	}
	if _, err := os.Stat(recFile); err != nil {
		t.Fatal(err)
	}

	out = run("prestrace", "-n", "5", recFile)
	if !strings.Contains(out, "scheme=SYNC") || !strings.Contains(out, "thread-start") {
		t.Fatalf("prestrace output:\n%s", out)
	}

	metricsFile := filepath.Join(dir, "replay-metrics.json")
	traceFile := filepath.Join(dir, "replay-trace.jsonl")
	out = run("presreplay", "-app", "fft", "-bug", "fft-barrier",
		"-metrics-out", metricsFile, "-trace-out", traceFile, recFile)
	if !strings.Contains(out, "reproduced in") || !strings.Contains(out, "re-reproduced") {
		t.Fatalf("presreplay output:\n%s", out)
	}
	if !strings.Contains(out, "simplified schedule") {
		t.Fatalf("presreplay missing simplification:\n%s", out)
	}
	checkMetricsJSON(t, metricsFile)
	checkTraceJSONL(t, traceFile)

	promFile := filepath.Join(dir, "replay-metrics.prom")
	run("presreplay", "-app", "fft", "-bug", "fft-barrier",
		"-metrics-out", promFile, "-metrics-format", "prom", recFile)
	prom, err := os.ReadFile(promFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "# TYPE pres_replay_attempts_total counter") ||
		!strings.Contains(string(prom), `le="+Inf"`) {
		t.Fatalf("prometheus metrics:\n%s", prom)
	}

	// A bounded epoch ring that evicted its head and kept no
	// checkpoint replays with nothing but the seed presrun printed.
	ringFile := filepath.Join(dir, "ring.pres")
	out = run("presrun", "-bug", "mysql-169", "-epoch-steps", "32", "-epoch-ring", "2", "-o", ringFile)
	seed := flagValue(t, out, "-seed")
	out = run("presreplay", "-app", "mysqld", "-bug", "mysql-169", "-seed", seed, ringFile)
	if !strings.Contains(out, "reproduced in") || !strings.Contains(out, "re-reproduced") {
		t.Fatalf("presreplay of a headless ring:\n%s", out)
	}

	// A checkpointed recording re-executes its prefix under the
	// recording's schedule seed, so without -seed presreplay refuses
	// with a usage error naming the flag instead of diverging on every
	// attempt; with the printed seed it reproduces.
	cpFile := filepath.Join(dir, "cp.pres")
	out = run("presrun", "-bug", "mysql-169", "-epoch-steps", "32", "-epoch-ring", "2", "-checkpoint-every", "1", "-o", cpFile)
	seed = flagValue(t, out, "-seed")
	// preslist names each checkpoint's world digest; only a recording
	// from before digest-only checkpoints has a world blob to report.
	if out := run("preslist", cpFile); !regexp.MustCompile(`world [0-9a-f]{16}\)`).MatchString(out) || strings.Contains(out, "legacy blob") {
		t.Fatalf("preslist of a checkpointed recording:\n%s", out)
	}
	if out := run("preslist", "internal/core/testdata/ring_world_blobs.pres"); !strings.Contains(out, "legacy blob 145 B") {
		t.Fatalf("preslist of a legacy checkpointed recording:\n%s", out)
	}
	noSeed, err := exec.Command(bins["presreplay"], "-app", "mysqld", "-bug", "mysql-169", cpFile).CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 2 || !strings.Contains(string(noSeed), "-seed") {
		t.Fatalf("presreplay of a checkpointed recording without -seed: err=%v, want exit 2 naming -seed:\n%s", err, noSeed)
	}
	out = run("presreplay", "-app", "mysqld", "-bug", "mysql-169", "-seed", seed, cpFile)
	if !strings.Contains(out, "replaying from checkpoint") || !strings.Contains(out, "reproduced in") {
		t.Fatalf("presreplay of a checkpointed recording:\n%s", out)
	}
	// Under a wrong seed every attempt would miss the checkpoint, so the
	// search stops after one and the advice names -seed.
	wrong, err := strconv.Atoi(seed)
	if err != nil {
		t.Fatal(err)
	}
	wrongSeed, err := exec.Command(bins["presreplay"], "-app", "mysqld", "-bug", "mysql-169",
		"-seed", strconv.Itoa(wrong+1), cpFile).CombinedOutput()
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 ||
		!strings.Contains(string(wrongSeed), "search stopped after 1 attempts") ||
		!strings.Contains(string(wrongSeed), "advice:") || !strings.Contains(string(wrongSeed), "-seed") {
		t.Fatalf("presreplay of a checkpointed recording under a wrong seed: err=%v, want exit 1 after one attempt naming -seed:\n%s", err, wrongSeed)
	}

	out = run("presbench", "-exp", "e9", "-json", "-seed-budget", "500")
	if !strings.Contains(out, "\"e9\"") || !strings.Contains(out, "\"Reproduced\": true") {
		t.Fatalf("presbench json output:\n%s", out)
	}

	// E8 renders E1's SYNC searches: without SYNC among -schemes it
	// prints a one-line note instead of a table, and succeeds.
	out = run("presbench", "-exp", "e8", "-schemes", "RW", "-seed-budget", "500")
	if !strings.Contains(out, "run it with SYNC among -schemes") || strings.Contains(out, "races seen") {
		t.Fatalf("presbench -exp e8 -schemes RW:\n%s", out)
	}

	// An experiment id presbench does not have, the retired e11 or a
	// made-up e99, is a usage error rather than an empty run.
	for _, args := range [][]string{{"-exp", "e11"}, {"-exp", "e99", "-json"}} {
		out, err := exec.Command(bins["presbench"], args...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), "e10, e12, e13, all") {
			t.Fatalf("presbench %v: err=%v, want a usage error listing the experiments:\n%s", args, err, out)
		}
	}

	// A trace that cannot be written fails the run: every tool exits
	// non-zero instead of reporting the trace as written.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to provoke a trace write failure")
	}
	for _, c := range [][]string{
		{"presrun", "-bug", "fft-barrier", "-scheme", "SYNC"},
		{"presreplay", "-app", "fft", "-bug", "fft-barrier", recFile},
		{"presbench", "-exp", "e9", "-json", "-seed-budget", "500"},
	} {
		args := append([]string{"-trace-out", "/dev/full"}, c[1:]...)
		out, err := exec.Command(bins[c[0]], args...).CombinedOutput()
		if err == nil {
			t.Fatalf("%s %v exited 0 after a failed trace write:\n%s", c[0], args, out)
		}
		if !strings.Contains(string(out), "/dev/full") || strings.Contains(string(out), "written to /dev/full") {
			t.Fatalf("%s %v did not report the trace failure:\n%s", c[0], args, out)
		}
	}
}

// flagValue returns the value following flag on the "replay with:" line
// of presrun's output.
func flagValue(t *testing.T, out, flag string) string {
	t.Helper()
	for _, ln := range strings.Split(out, "\n") {
		if !strings.HasPrefix(ln, "replay with:") {
			continue
		}
		f := strings.Fields(ln)
		for i := range f[:len(f)-1] {
			if f[i] == flag {
				return f[i+1]
			}
		}
	}
	t.Fatalf("no %s in presrun's replay hint:\n%s", flag, out)
	return ""
}

// checkMetricsJSON asserts the file is a valid repro.MetricsSnapshot
// with the headline replay series present.
func checkMetricsJSON(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap repro.MetricsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics file is not a snapshot: %v\n%s", err, raw)
	}
	var attempts uint64
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "pres_replay_attempts_total{") {
			attempts += v
		}
	}
	if attempts == 0 {
		t.Fatalf("no pres_replay_attempts_total series in %v", snap.Counters)
	}
	if snap.Counters["sched_steps_total"] == 0 {
		t.Fatalf("scheduler counters missing: %v", snap.Counters)
	}
	if _, ok := snap.Histograms["pres_replay_attempt_wall_seconds"]; !ok {
		t.Fatalf("attempt wall histogram missing: %v", snap.Histograms)
	}
}

// checkTraceJSONL asserts the trace is valid JSONL: one attempt event
// per attempt with the contract's fields, closed by a summary event.
func checkTraceJSONL(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace has %d lines; want attempts + summary", len(lines))
	}
	for i, ln := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("trace line %d %q: %v", i+1, ln, err)
		}
		last := i == len(lines)-1
		switch ev["event"] {
		case repro.EventAttempt:
			if last {
				t.Fatal("trace not closed by a summary event")
			}
			for _, field := range []string{"attempt", "mode", "outcome", "wall_ms", "sketch_consumed"} {
				if _, ok := ev[field]; !ok {
					t.Fatalf("attempt event missing %q: %v", field, ev)
				}
			}
		case repro.EventSummary:
			if !last {
				t.Fatalf("summary event mid-trace at line %d", i+1)
			}
			if ev["reproduced"] != true {
				t.Fatalf("summary: %v", ev)
			}
		default:
			t.Fatalf("unknown event type in %v", ev)
		}
	}
}
