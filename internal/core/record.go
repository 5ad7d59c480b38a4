// Package core implements PRES itself: production-run recording under a
// chosen sketching mechanism, the intelligent replayer that explores the
// unrecorded non-deterministic space with feedback from failed attempts,
// and the reproducer that replays a captured full order deterministically
// every time.
package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"sync"

	"repro/internal/appkit"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sketch"
	"repro/internal/trace"
	"repro/internal/vsys"
)

// Options parameterizes a production run.
type Options struct {
	Scheme sketch.Scheme
	// Processors models the production machine's core count.
	Processors int
	// Preempt is the per-point timeslice-preemption probability of the
	// production scheduler; zero means DefaultPreempt.
	Preempt float64
	// ScheduleSeed seeds the production run's interleaving.
	ScheduleSeed int64
	// WorldSeed seeds the virtual syscall layer (clock/rng inputs).
	WorldSeed int64
	// Scale and MaxSteps are passed through to the program/scheduler.
	Scale    int
	MaxSteps uint64
	// FixBugs runs the programs' patched code paths (see appkit.Env).
	FixBugs bool
	// EpochRing, when non-nil, selects epoch-segmented recording: the
	// sketch is sealed into fixed-length epochs kept in a bounded ring
	// with periodic checkpoints (see EpochRingOptions). The recorded
	// interleaving is identical to a plain recording of the same seeds —
	// sealing observes the committed stream, it never perturbs it — and
	// an unbounded, checkpoint-free ring serializes byte-identically to
	// the classic format. Nil, the default, is the classic
	// whole-execution path, untouched.
	EpochRing *EpochRingOptions
	// Inject, when non-nil, returns a fresh failure-injection hook for
	// each execution (internal/scenario's failure classes are such
	// factories). The factory shape matters: injectors keep per-thread
	// counters, and Options outlives a single run — the recording run,
	// every replay attempt, and order reproduction each materialize
	// their own hook so injection decisions repeat identically. Nil —
	// the default — leaves every fault site on its unconditional fast
	// path (see TestInjectDisabledAllocFree).
	Inject func() sched.InjectFn
	// Metrics, when non-nil, receives recording metrics (sketch entries
	// written, log bytes, modelled overhead — see OBSERVABILITY.md) and
	// the substrate's scheduler counters. Nil, the default, keeps the
	// production hot path free of measurement cost.
	Metrics *obs.Registry
}

// DefaultPreempt is the production scheduler's timeslice-preemption
// probability when Options leaves it zero.
const DefaultPreempt = 0.02

func (o Options) preempt() float64 {
	if o.Preempt == 0 {
		return DefaultPreempt
	}
	return o.Preempt
}

func (o Options) processors() int {
	if o.Processors <= 0 {
		return 4
	}
	return o.Processors
}

// Recording is everything PRES keeps from a production run: the sketch,
// the input log, and the run's outcome. Result (and BugFailure) tell the
// recording side whether the bug manifested; Write does not persist it,
// so the replay side — Replay, Simplify and Reproduce — reads nothing
// from it, and an in-memory recording replays exactly like the one
// ReadRecording returns for its serialized form.
type Recording struct {
	Scheme  sketch.Scheme
	Sketch  *trace.SketchLog
	Inputs  *trace.InputLog
	Options Options
	Result  *sched.Result
	// Epochs is the epoch-segmented container when the recording was
	// made with Options.EpochRing (nil otherwise). Sketch then holds the
	// retained window's log view — Entries are the window, TotalOps and
	// Records keep whole-run counts.
	Epochs *trace.EpochRing
}

// BugFailure returns the manifested bug failure of the production run,
// or nil if the run completed cleanly.
func (r *Recording) BugFailure() *sched.Failure {
	if r.Result != nil && r.Result.Failure != nil && r.Result.Failure.IsBug() {
		return r.Result.Failure
	}
	return nil
}

// LogBytes returns the number of bytes Write writes — the storage cost
// of this recording, framing included. It runs the same encode as
// Write, so the two never disagree.
func (r *Recording) LogBytes() int {
	n := 0
	_ = r.encode(func(p []byte) error { n += len(p); return nil }) // counting never fails
	return n
}

// Write serializes the recording's logs (sketch, then inputs). Each
// section is length-prefixed so the reader can split them without the
// decoders' internal buffering over-reading across the boundary.
// Epoch-segmented recordings whose ring carries structure the classic
// format cannot express (a bounded window or checkpoints) are written
// as a container instead: the trace.EpochContainerMagic sniff tag, then
// a length-prefixed epoch section and input section. An unbounded,
// checkpoint-free ring's window is the whole log, so it takes the
// classic path — byte-identical to a recording made without EpochRing.
func (r *Recording) Write(w io.Writer) error {
	return r.encode(func(p []byte) error {
		_, err := w.Write(p)
		return err
	})
}

// encodeBufs recycles the buffer encode appends each section into, so
// a repeated Write or LogBytes allocates nothing.
var encodeBufs = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// sectionHead is the room encode leaves in front of each section: the
// container magic plus the longest uvarint length prefix.
const sectionHead = len(trace.EpochContainerMagic) + binary.MaxVarintLen64

// encode appends each section once into one reused buffer, after room
// for its head, then writes the length prefix (and, for a container's
// first section, the magic) into that room and hands emit the framed
// section: Write's bytes, in two calls.
func (r *Recording) encode(emit func([]byte) error) error {
	bp := encodeBufs.Get().(*[]byte)
	defer encodeBufs.Put(bp)
	container := r.Epochs != nil && r.Epochs.Segmented()
	for section := 0; section < 2; section++ {
		buf := (*bp)[:sectionHead]
		switch {
		case section == 1:
			buf = trace.AppendInput(buf, r.Inputs)
		case container:
			buf = trace.AppendEpochs(buf, r.Epochs)
		default:
			buf = trace.AppendSketch(buf, r.Sketch)
		}
		*bp = buf
		var lead [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(lead[:], uint64(len(buf)-sectionHead))
		start := sectionHead - n
		copy(buf[start:], lead[:n])
		if section == 0 && container {
			start -= len(trace.EpochContainerMagic)
			copy(buf[start:], trace.EpochContainerMagic)
		}
		if err := emit(buf[start:]); err != nil {
			return err
		}
	}
	return nil
}

func readSection(br io.ByteReader, rd io.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n > 1<<31 {
		return nil, trace.ErrBadFormat
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(rd, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadRecording deserializes logs written by Write — both layouts.
// The container is sniffed by its leading magic, which the classic
// format can never start with (its first byte is a uvarint length, so
// either the high bit is set or the "PRSK" sketch magic follows).
// Options and Result are not part of the wire format; the caller
// supplies Options.
func ReadRecording(rd io.Reader, opts Options) (*Recording, error) {
	br := bufio.NewReader(rd)
	container := false
	if head, err := br.Peek(len(trace.EpochContainerMagic)); err == nil && string(head) == trace.EpochContainerMagic {
		br.Discard(len(trace.EpochContainerMagic))
		container = true
	}
	skBytes, err := readSection(br, br)
	if err != nil {
		return nil, err
	}
	inBytes, err := readSection(br, br)
	if err != nil {
		return nil, err
	}
	var sk *trace.SketchLog
	var ring *trace.EpochRing
	if container {
		ring, err = trace.DecodeEpochs(bytes.NewReader(skBytes))
		if err != nil {
			return nil, err
		}
		sk = ring.WindowLog()
	} else {
		sk, err = trace.DecodeSketch(bytes.NewReader(skBytes))
		if err != nil {
			return nil, err
		}
	}
	in, err := trace.DecodeInput(bytes.NewReader(inBytes))
	if err != nil {
		return nil, err
	}
	scheme, err := sketch.Parse(sk.Scheme)
	if err != nil {
		return nil, err
	}
	return &Recording{Scheme: scheme, Sketch: sk, Inputs: in, Options: opts, Epochs: ring}, nil
}

// execute runs prog once with a fresh world in the given vsys mode. It
// is the single point where Options' failure injection reaches the
// substrate, so recording, replay attempts and order reproduction all
// honor it uniformly.
func execute(prog *appkit.Program, opts Options, cfg sched.Config, world *vsys.World) *sched.Result {
	var inj sched.InjectFn
	if opts.Inject != nil {
		// One fresh hook per execution: per-thread injector state never
		// leaks across replay attempts.
		inj = opts.Inject()
	}
	cfg.Inject = inj
	return sched.Run(func(t *sched.Thread) {
		prog.Run(&appkit.Env{T: t, W: world, Scale: opts.Scale, Procs: opts.processors(), FixBugs: opts.FixBugs, Inject: inj})
	}, cfg)
}

// Record performs one production run of prog under opts, recording a
// sketch with the chosen scheme and the input log. The run uses the
// multiprocessor production scheduler; whether the bug manifests depends
// on ScheduleSeed (use harness.FindBuggySeed to search). It is
// RecordContext with a background context.
func Record(prog *appkit.Program, opts Options) *Recording {
	return RecordContext(context.Background(), prog, opts)
}

// RecordContext performs one production run under ctx: a cancelled
// context unwinds the run at its next scheduling point, leaving a
// recording whose Result carries a ReasonCancelled failure (never
// mistaken for a manifested bug).
func RecordContext(ctx context.Context, prog *appkit.Program, opts Options) *Recording {
	world := vsys.NewWorld(opts.WorldSeed)
	inputs := &trace.InputLog{}
	world.StartRecording(inputs)
	var rec interface {
		sched.Observer
		Log() *trace.SketchLog
	}
	var epochRec *epochRecorder
	if opts.EpochRing != nil {
		epochRec = newEpochRecorder(opts.Scheme, world, inputs, opts.EpochRing)
		rec = epochRec
	} else {
		rec = sketch.NewRecorder(opts.Scheme)
	}
	res := execute(prog, opts, sched.Config{
		Strategy:  sched.NewRandomMP(opts.processors(), opts.preempt(), opts.ScheduleSeed),
		Observers: []sched.Observer{rec},
		MaxSteps:  opts.MaxSteps,
		Metrics:   opts.Metrics,
		Ctx:       ctx,
	}, world)
	if epochRec != nil {
		epochRec.finish()
	}
	scheme := opts.Scheme.String()
	out := &Recording{
		Scheme:  opts.Scheme,
		Sketch:  rec.Log(),
		Inputs:  inputs,
		Options: opts,
		Result:  res,
	}
	if epochRec != nil {
		out.Epochs = epochRec.ring
	}
	if m := opts.Metrics; m != nil {
		m.Counter("pres_record_runs_total", "scheme", scheme).Inc()
		m.Counter("pres_record_steps_total", "scheme", scheme).Add(res.Steps)
		m.Counter("pres_record_sketch_entries_total", "scheme", scheme).Add(uint64(out.Sketch.Len()))
		// LogBytes runs the encode Write does, so the span is the run's
		// serialization cost (see pres_record_encode_seconds in
		// OBSERVABILITY.md).
		sp := m.Timer("pres_record_encode_seconds", "scheme", scheme).Start()
		logBytes := out.LogBytes()
		sp.Stop()
		m.Counter("pres_record_log_bytes_total", "scheme", scheme).Add(uint64(logBytes))
		m.Gauge("pres_record_overhead_ratio", "scheme", scheme).Set(res.Overhead())
		if epochRec != nil {
			m.Counter("pres_record_epoch_rolls_total", "scheme", scheme).Add(epochRec.rolls)
			m.Counter("pres_record_epoch_evicted_total", "scheme", scheme).Add(epochRec.ring.Evicted)
			m.Counter("pres_record_epoch_inputs_evicted_total", "scheme", scheme).Add(epochRec.inputsEvicted)
			m.Counter("pres_record_epoch_checkpoints_total", "scheme", scheme).Add(uint64(len(epochRec.ring.Checkpoints)))
			m.Gauge("pres_record_epoch_ring_entries", "scheme", scheme).SetMax(float64(epochRec.highWater))
		}
	}
	return out
}
