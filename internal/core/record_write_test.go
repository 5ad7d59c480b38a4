package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"repro/internal/apps"
	"repro/internal/sketch"
)

// writeGoldenRing is the epoch ring of an always-on service recording:
// 2048-step epochs, 8 retained, a checkpoint at every seal.
var writeGoldenRing = EpochRingOptions{Steps: 2048, Size: 8, CheckpointEvery: 1}

// writeGoldenRecordings returns the recordings TestRecordingWriteGolden
// pins, each with its golden label: mysqld under every scheme but RW,
// fft under RW, and the seven server and client programs under SYNC in
// writeGoldenRing.
func writeGoldenRecordings(t *testing.T) (labels []string, recs []*Recording) {
	t.Helper()
	add := func(app string, opts Options) {
		prog, ok := apps.Get(app)
		if !ok {
			t.Fatalf("%s not in corpus", app)
		}
		opts.Processors, opts.ScheduleSeed, opts.WorldSeed, opts.FixBugs = 4, 1, 1, true
		label := fmt.Sprintf("%s %v scale=%d", app, opts.Scheme, opts.Scale)
		if opts.EpochRing != nil {
			label += " ring"
		}
		labels = append(labels, label)
		recs = append(recs, Record(prog, opts))
	}
	for _, s := range sketch.All() {
		if s != sketch.RW {
			add("mysqld", Options{Scheme: s, Scale: 400})
		}
	}
	add("fft", Options{Scheme: sketch.RW, Scale: 800})
	for _, app := range []string{"mysqld", "apached", "cherokeed", "openldapd", "pbzip2", "aget", "transmission"} {
		add(app, Options{Scheme: sketch.SYNC, Scale: 800, EpochRing: &writeGoldenRing})
	}
	return labels, recs
}

// TestRecordingWriteGolden pins the length and FNV-64a hash of the bytes
// Recording.Write produces for each of writeGoldenRecordings. The wire
// goldens in internal/trace pin each encoder on a hand-built log; this
// file pins the whole serialized recording of real runs, framing and
// checkpoints included, so an encoder or framing change that moves one
// byte moves a line here.
//
// Regenerate deliberately with:
// go test ./internal/core -run TestRecordingWriteGolden -update
func TestRecordingWriteGolden(t *testing.T) {
	labels, recs := writeGoldenRecordings(t)
	var got bytes.Buffer
	for i, rec := range recs {
		data := writeRecording(t, rec)
		h := fnv.New64a()
		h.Write(data)
		fmt.Fprintf(&got, "%s steps=%d entries=%d bytes=%d fnv=%016x\n",
			labels[i], rec.Result.Steps, rec.Sketch.Len(), len(data), h.Sum64())
	}
	checkGolden(t, recordingWriteGoldenPath, got.Bytes())
}

const recordingWriteGoldenPath = "testdata/recording_write.golden"

// TestLogBytesMatchesWrite: LogBytes reports exactly the bytes Write
// writes — both section length prefixes, and for a checkpointed ring
// the container magic and every epoch — for each classic recording and
// each ring of writeGoldenRecordings.
func TestLogBytesMatchesWrite(t *testing.T) {
	labels, recs := writeGoldenRecordings(t)
	rings := 0
	for i, rec := range recs {
		if rec.Epochs != nil && len(rec.Epochs.Checkpoints) > 0 {
			rings++
		}
		if got, want := rec.LogBytes(), len(writeRecording(t, rec)); got != want {
			t.Errorf("%s: LogBytes %d, Write wrote %d bytes", labels[i], got, want)
		}
	}
	if rings == 0 {
		t.Fatal("no checkpointed ring among the recordings")
	}
}

// TestRecordingWriteAllocBound: Write encodes each section into one
// pooled buffer, so writing an RW recording again allocates at most a
// small constant however long its log. Today it allocates 0 times.
func TestRecordingWriteAllocBound(t *testing.T) {
	if raceBuild {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	prog, _ := apps.Get("fft")
	rec := Record(prog, Options{Scheme: sketch.RW, Processors: 4, ScheduleSeed: 1, WorldSeed: 1, Scale: 800, FixBugs: true})
	if rec.Sketch.Len() < 10_000 {
		t.Fatalf("fft RW sketch holds %d entries, want a dense log", rec.Sketch.Len())
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := rec.Write(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Write allocated %.0f times, want at most 2", allocs)
	}
}
