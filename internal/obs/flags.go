package obs

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
)

// Flags is the observability flag set presrun, presreplay and presbench
// share: -metrics-out, -metrics-format and -trace-out. A tool registers
// it with AddFlags, calls Open once its own arguments check out, hands
// Registry and Trace to the run, and ends every later exit path with
// Exit or Fatal, so a failed trace or snapshot write always fails the
// run.
type Flags struct {
	// Registry and Trace are set by Open: nil (disabled) unless
	// -metrics-out or -trace-out is given.
	Registry *Registry
	Trace    *TraceSink
	// Report receives one line per file Close writes: os.Stdout unless
	// a tool's stdout is a document (presbench -json discards it).
	Report io.Writer

	metricsOut, traceOut *string
	metricsFormat        formatFlag
	traceName            string
	traceFile            *os.File
}

// AddFlags registers the three flags on fs; parsing rejects an unknown
// -metrics-format. traceName names the trace in Close's report line
// ("record trace", "attempt trace"); traceUsage is the -trace-out help
// text.
func AddFlags(fs *flag.FlagSet, traceName, traceUsage string) *Flags {
	f := &Flags{
		Report:        os.Stdout,
		metricsOut:    fs.String("metrics-out", "", "write a metrics snapshot to this file"),
		metricsFormat: "json",
		traceOut:      fs.String("trace-out", "", traceUsage),
		traceName:     traceName,
	}
	fs.Var(&f.metricsFormat, "metrics-format", "metrics snapshot `format`: json or prom")
	return f
}

// formatFlag is a -metrics-format value WriteSnapshot accepts.
type formatFlag string

func (v *formatFlag) String() string { return string(*v) }

func (v *formatFlag) Set(s string) error {
	switch s {
	case "json", "prom", "prometheus":
		*v = formatFlag(s)
		return nil
	}
	return errors.New("want json or prom")
}

// Open creates the registry when -metrics-out is set, and the
// -trace-out file and its sink when that is set.
func (f *Flags) Open() error {
	if *f.traceOut != "" {
		tf, err := os.Create(*f.traceOut)
		if err != nil {
			return err
		}
		f.traceFile = tf
		f.Trace = NewTraceSink(tf)
	}
	if *f.metricsOut != "" {
		f.Registry = NewRegistry()
	}
	return nil
}

// Close finishes both outputs: it takes the trace sink's sticky write
// error, closes the trace file and writes the metrics snapshot. It
// does all three whatever fails and returns the first error; a file is
// reported as written only when nothing about it failed.
func (f *Flags) Close() error {
	var traceErr, metricsErr error
	if f.traceFile != nil {
		if err := errors.Join(f.Trace.Err(), f.traceFile.Close()); err != nil {
			traceErr = fmt.Errorf("trace %s: %w", *f.traceOut, err)
		} else {
			fmt.Fprintf(f.Report, "%s written to %s (%d events)\n", f.traceName, *f.traceOut, f.Trace.Events())
		}
	}
	if f.Registry != nil {
		if err := f.writeMetrics(); err != nil {
			metricsErr = fmt.Errorf("metrics %s: %w", *f.metricsOut, err)
		} else {
			fmt.Fprintf(f.Report, "metrics snapshot written to %s\n", *f.metricsOut)
		}
	}
	return cmp.Or(traceErr, metricsErr)
}

// Exit closes the outputs and ends the process with code, or with 1 if
// Close failed (the error is logged).
func (f *Flags) Exit(code int) {
	if err := f.Close(); err != nil {
		log.Print(err)
		code = 1
	}
	os.Exit(code)
}

// Fatal is log.Fatal for a tool whose outputs are open: it logs v,
// closes the outputs and exits 1.
func (f *Flags) Fatal(v ...any) {
	log.Print(v...)
	f.Exit(1)
}

func (f *Flags) writeMetrics() error {
	mf, err := os.Create(*f.metricsOut)
	if err != nil {
		return err
	}
	return errors.Join(WriteSnapshot(mf, f.Registry, string(f.metricsFormat)), mf.Close())
}
