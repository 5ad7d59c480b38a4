package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/appkit"
	"repro/internal/apps"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/vsys"
)

// TestProductionScheduleGolden pins the production scheduler itself:
// every corpus program, patched and buggy, under RandomMP on 4
// processors at schedule seeds 0-2. One line per run records the steps
// committed, the failure (if any), an FNV-64a hash of the committed
// (TID, Kind, Obj, Arg) stream, and the steps Reproduce commits on the
// captured full order. The patched runs are the batch-heavy executions
// the recording benchmarks measure; no search is involved, so a change
// to the scheduler's grant loop, RandomMP or PointBatch that moves one
// step moves a line here, and a performance change must leave the file
// alone.
//
// Regenerate deliberately with:
// go test ./internal/core -run TestProductionScheduleGolden -update
func TestProductionScheduleGolden(t *testing.T) {
	var got bytes.Buffer
	for _, prog := range apps.All() {
		for _, patched := range []bool{true, false} {
			for seed := int64(0); seed < 3; seed++ {
				got.WriteString(productionScheduleLine(prog, patched, seed))
			}
		}
	}
	checkGolden(t, scheduleGoldenPath, got.Bytes())
}

const scheduleGoldenPath = "testdata/production_schedule.golden"

// patchedScale sizes the patched runs: a quarter of the scale the
// recording benchmark runs them at, the same batched compute loops and
// request handlers at a few thousand steps each. The buggy runs keep
// each program's default scale, as the corpus records them.
const patchedScale = 200

// productionScheduleLine makes the production run Record makes for
// (prog, patched, seed), hashing the committed stream and capturing
// its full order, then reproduces that order.
func productionScheduleLine(prog *appkit.Program, patched bool, seed int64) string {
	opts := Options{Processors: 4, ScheduleSeed: seed, WorldSeed: 1, MaxSteps: 300_000, FixBugs: patched}
	if patched {
		opts.Scale = patchedScale
	}
	world := vsys.NewWorld(opts.WorldSeed)
	inputs := &trace.InputLog{}
	world.StartRecording(inputs)
	stream := &streamHash{h: fnv.New64a()}
	order := &orderCapture{}
	res := execute(prog, opts, sched.Config{
		Strategy:  sched.NewRandomMP(opts.processors(), opts.preempt(), seed),
		Observers: []sched.Observer{stream, order},
		MaxSteps:  opts.MaxSteps,
	}, world)
	rep := Reproduce(prog, &Recording{Inputs: inputs, Options: opts}, order.full())
	variant := "buggy"
	if patched {
		variant = "patched"
	}
	return fmt.Sprintf("%s %s seed=%d steps=%d failure=%s stream=%016x reproduce_steps=%d\n",
		prog.Name, variant, seed, res.Steps, failureLabel(res.Failure), stream.h.Sum64(), rep.Steps)
}

// failureLabel names a run's outcome: "none", or the failure reason
// with the bug id when one was asserted.
func failureLabel(f *sched.Failure) string {
	switch {
	case f == nil:
		return "none"
	case f.BugID != "":
		return f.Reason.String() + "/" + f.BugID
	default:
		return f.Reason.String()
	}
}

// streamHash folds every committed event's (TID, Kind, Obj, Arg) into
// an FNV-64a hash.
type streamHash struct {
	h   hash.Hash64
	buf [21]byte
}

func (s *streamHash) OnEvent(ev trace.Event) uint64 {
	binary.LittleEndian.PutUint32(s.buf[0:], uint32(ev.TID))
	s.buf[4] = byte(ev.Kind)
	binary.LittleEndian.PutUint64(s.buf[5:], ev.Obj)
	binary.LittleEndian.PutUint64(s.buf[13:], ev.Arg)
	s.h.Write(s.buf[:])
	return 0
}
