package obs

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parseFlags(t *testing.T, args ...string) (*Flags, error) {
	t.Helper()
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := AddFlags(fs, "test trace", "trace usage")
	return f, fs.Parse(args)
}

func TestFlagsRejectUnknownFormat(t *testing.T) {
	if _, err := parseFlags(t, "-metrics-format", "xml"); err == nil {
		t.Fatal("parsing accepted -metrics-format xml")
	}
	for _, format := range []string{"json", "prom", "prometheus"} {
		if _, err := parseFlags(t, "-metrics-format", format); err != nil {
			t.Fatalf("-metrics-format %s: %v", format, err)
		}
	}
}

func TestFlagsCloseWritesAndReports(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.jsonl")
	metricsPath := filepath.Join(dir, "m.prom")
	f, err := parseFlags(t, "-trace-out", tracePath, "-metrics-out", metricsPath, "-metrics-format", "prom")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Open(); err != nil {
		t.Fatal(err)
	}
	f.Registry.Counter("pres_test_total").Inc()
	f.Trace.Emit(RecordEvent{Event: EventRecord, Seed: 3})
	var report bytes.Buffer
	f.Report = &report
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := "test trace written to " + tracePath + " (1 events)\nmetrics snapshot written to " + metricsPath + "\n"
	if report.String() != want {
		t.Fatalf("report = %q, want %q", report.String(), want)
	}
	if b, _ := os.ReadFile(tracePath); !strings.Contains(string(b), `"seed":3`) {
		t.Fatalf("trace file = %q", b)
	}
	if b, _ := os.ReadFile(metricsPath); !strings.Contains(string(b), "pres_test_total 1") {
		t.Fatalf("metrics file = %q", b)
	}
}

func TestFlagsCloseReturnsWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to provoke a write failure")
	}
	metricsPath := filepath.Join(t.TempDir(), "missing-dir", "m.json")
	f, err := parseFlags(t, "-trace-out", "/dev/full", "-metrics-out", metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Open(); err != nil {
		t.Fatal(err)
	}
	f.Trace.Emit(RecordEvent{Event: EventRecord})
	var report bytes.Buffer
	f.Report = &report
	err = f.Close()
	if err == nil || !strings.Contains(err.Error(), "trace /dev/full") {
		t.Fatalf("Close = %v, want the trace write error first", err)
	}
	if report.Len() != 0 {
		t.Fatalf("failed outputs reported as written: %q", report.String())
	}
}
