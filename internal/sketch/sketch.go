// Package sketch implements PRES's execution sketching mechanisms: the
// production-run recorders that log a chosen subsequence of the global
// event order. The paper's five mechanisms plus the baseline:
//
//	BASE — nothing but non-deterministic inputs (handled by vsys)
//	SYNC — global order of synchronization operations
//	SYS  — global order of system calls (incl. thread lifecycle)
//	FUNC — global order of function entries/exits
//	BB   — global order of basic-block boundaries
//	RW   — global order of all shared-memory accesses (prior work's
//	       full recording; the overhead baseline PRES is compared to)
//
// A Recorder is a sched.Observer: it filters events by scheme and
// charges the modelled per-record cost against the production run, which
// is how the overhead experiments (E2/E7) measure each scheme.
package sketch

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// Scheme selects a sketching mechanism.
type Scheme int

// The schemes, ordered from cheapest to most complete.
const (
	BASE Scheme = iota
	SYNC
	SYS
	FUNC
	BB
	RW
	// HYBRID records the union of SYNC and SYS — an extension beyond
	// the paper's five mechanisms: for roughly the sum of two tiny
	// overheads it pins both the synchronization order and the
	// system-call order, closing the gaps each leaves alone.
	HYBRID
	numSchemes
)

// All lists the paper's mechanisms, cheapest first (HYBRID, this
// reproduction's extension, is excluded so the regenerated tables match
// the paper's columns; see Extended).
func All() []Scheme { return []Scheme{BASE, SYNC, SYS, FUNC, BB, RW} }

// Extended lists every mechanism including the HYBRID extension.
func Extended() []Scheme { return append(All(), HYBRID) }

// String returns the scheme's canonical upper-case name.
func (s Scheme) String() string {
	switch s {
	case BASE:
		return "BASE"
	case SYNC:
		return "SYNC"
	case SYS:
		return "SYS"
	case FUNC:
		return "FUNC"
	case BB:
		return "BB"
	case RW:
		return "RW"
	case HYBRID:
		return "HYBRID"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Parse converts a scheme name (case-insensitive) back to a Scheme.
func Parse(name string) (Scheme, error) {
	for _, s := range Extended() {
		if strings.EqualFold(s.String(), name) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("sketch: unknown scheme %q", name)
}

// Records reports whether the scheme logs events of kind k.
func (s Scheme) Records(k trace.Kind) bool {
	switch s {
	case BASE:
		return false
	case SYNC:
		return k.IsSync()
	case SYS:
		return k.IsSyscall()
	case HYBRID:
		return k.IsSync() || k.IsSyscall()
	case FUNC:
		return k == trace.KindFuncEnter || k == trace.KindFuncExit
	case BB:
		return k == trace.KindBB
	case RW:
		// Binary instrumentation cannot tell private accesses from
		// shared ones, so full memory-order recording also pays for
		// every access inside straight-line blocks (see Weight).
		return k.IsMemory() || k.IsSync() || k.IsSyscall() || k == trace.KindBB
	default:
		return false
	}
}

// Weight returns how many log records the event represents for the
// scheme: a straight-line block of n private accesses costs the RW
// recorder n records (one per access), while every other recorded event
// is a single record. BB entries in an RW sketch are stored run-length
// (one entry representing n accesses), so the in-memory log stays
// small; the production-run cost is charged in full.
func (s Scheme) Weight(ev trace.Event) uint64 {
	if !s.Records(ev.Kind) {
		return 0
	}
	if s == RW && ev.Kind == trace.KindBB {
		return max(ev.Arg, 1)
	}
	return 1
}

// RecordCost is the modelled logical cost of appending one record to
// the globally ordered sketch log during the production run: the
// synchronized claim of a global sequence number (a contended atomic
// increment plus the cache-line transfer) and the log write — on the
// order of tens of simple instructions, so 15 access-times.
const RecordCost = 15 * trace.CostUnit

// FilterCost is the per-instrumentation-point cost of the recording
// substrate itself — the inlined "do I record this?" dispatch every
// scheme (including BASE) pays at every point, about one access-time.
// It is what puts a floor under the cheap schemes' overhead and bounds
// the achievable reduction versus RW, exactly as the binary-
// instrumentation substrate did on the paper's testbed.
const FilterCost = trace.CostUnit

// EpochSealCost is the modelled cost of sealing one epoch into the
// always-on recorder's epoch ring (core.Options.EpochRing): cutting the
// open epoch's entries out of the log and publishing them to the ring
// (a fence plus a shared append). It is paid only at control transfers
// where the open epoch has reached its length, so it amortizes over
// thousands of steps.
const EpochSealCost = 25 * trace.CostUnit

// Recorder is the production-run observer for one scheme.
type Recorder struct {
	scheme Scheme
	log    *trace.SketchLog
}

// NewRecorder returns a recorder appending to a fresh sketch log.
func NewRecorder(s Scheme) *Recorder {
	return &Recorder{scheme: s, log: &trace.SketchLog{Scheme: s.String()}}
}

// Scheme returns the recorder's scheme.
func (r *Recorder) Scheme() Scheme { return r.scheme }

// Log returns the sketch log accumulated so far.
func (r *Recorder) Log() *trace.SketchLog { return r.log }

// OnRunStart implements sched.RunObserver: a granted multi-step run
// will append at most n entries, so the log reserves them up front and
// the per-commit Append never reallocates mid-run.
func (r *Recorder) OnRunStart(n int) { r.log.Reserve(n) }

// OnEvent implements sched.Observer: it logs sketch-relevant events and
// charges the record cost against the run.
func (r *Recorder) OnEvent(ev trace.Event) uint64 {
	r.log.TotalOps++
	w := r.scheme.Weight(ev)
	if w == 0 {
		return FilterCost
	}
	r.log.Append(ev)
	r.log.Records += w
	return FilterCost + RecordCost*w
}

// countingWriter measures encoded bytes without buffering them.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// EncodedSize returns the byte size of the sketch log in the on-disk
// format — the "log size" metric of experiment E3.
func EncodedSize(l *trace.SketchLog) int {
	var w countingWriter
	if err := trace.EncodeSketch(&w, l); err != nil {
		// The counting writer never fails; an error here is a bug.
		panic(fmt.Sprintf("sketch: encode failed: %v", err))
	}
	return w.n
}

// InputEncodedSize returns the byte size of an input log in the on-disk
// format; inputs are charged to every scheme including BASE.
func InputEncodedSize(l *trace.InputLog) int {
	var w countingWriter
	if err := trace.EncodeInput(&w, l); err != nil {
		panic(fmt.Sprintf("sketch: encode failed: %v", err))
	}
	return w.n
}

// Density returns recorded entries per total instrumented operation —
// the quantity that determines each scheme's overhead.
func Density(l *trace.SketchLog) float64 {
	if l.TotalOps == 0 {
		return 0
	}
	return float64(len(l.Entries)) / float64(l.TotalOps)
}
