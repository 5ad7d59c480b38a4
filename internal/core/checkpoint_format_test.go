package core

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/sketch"
	"repro/internal/trace"
)

// Checkpoints are digest-only: a recording keeps each boundary's world
// digest, not the world snapshot. Older recordings carry the snapshot
// blob in every checkpoint, and they still read. legacyRingPath is one: ringRecording's mysql-169 ring (schedule seed
// 22, world seed 1, 32-step epochs, a 2-epoch ring, a checkpoint at
// every seal), written while checkpoints still stored the blob.
const legacyRingPath = "testdata/ring_world_blobs.pres"

// legacyRingOptions are the options legacyRingPath was recorded under.
var legacyRingOptions = Options{
	Scheme: sketch.SYNC, Processors: 4, ScheduleSeed: 22, WorldSeed: 1,
	EpochRing: &EpochRingOptions{Steps: 32, Size: 2, CheckpointEvery: 1},
}

// readLegacyRing returns the legacy recording and its file bytes.
func readLegacyRing(t *testing.T) (*Recording, []byte) {
	t.Helper()
	raw, err := os.ReadFile(legacyRingPath)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ReadRecording(bytes.NewReader(raw), legacyRingOptions)
	if err != nil {
		t.Fatalf("read %s: %v", legacyRingPath, err)
	}
	if len(rec.Epochs.Checkpoints) == 0 {
		t.Fatalf("%s holds no checkpoint", legacyRingPath)
	}
	return rec, raw
}

// writeRecording returns rec's serialized bytes.
func writeRecording(t *testing.T, rec *Recording) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLegacyWorldBlobRecording: a recording whose checkpoints carry
// world blobs still reads, validates, re-encodes byte-identical and
// replays from its checkpoint to the same result as a fresh recording
// of the same seeds. The fresh ring equals the legacy one with its
// blobs removed and its input log cut at its oldest checkpoint — so
// each fresh world digest is the digest of the world at its boundary —
// carries no blob, and encodes smaller.
func TestLegacyWorldBlobRecording(t *testing.T) {
	old, raw := readLegacyRing(t)
	for i, cp := range old.Epochs.Checkpoints {
		if len(cp.World) == 0 {
			t.Fatalf("fixture checkpoint %d carries no world blob", i)
		}
		d := trace.NewDigest()
		d.Bytes(cp.World)
		if d.Sum() != cp.WorldDigest {
			t.Fatalf("checkpoint %d: blob digests to %016x, stored world digest %016x", i, d.Sum(), cp.WorldDigest)
		}
	}
	if err := old.Validate(); err != nil {
		t.Fatalf("legacy recording invalid: %v", err)
	}
	if got := writeRecording(t, old); !bytes.Equal(got, raw) {
		t.Fatalf("legacy recording re-encodes to %d bytes that differ from its %d file bytes", len(got), len(raw))
	}

	fresh := ringRecording(t)
	if fresh.Options.ScheduleSeed != legacyRingOptions.ScheduleSeed {
		t.Fatalf("ringRecording found seed %d, the fixture was recorded at seed %d",
			fresh.Options.ScheduleSeed, legacyRingOptions.ScheduleSeed)
	}
	// The fixture predates the input cut too: it keeps the whole input
	// log, and its checkpoints index it from process start. Cut it the
	// way the recorder now does, at the oldest retained checkpoint.
	cut := old.Epochs.Checkpoints[0].InputIndex
	stripped := *old.Epochs
	stripped.Checkpoints = append([]trace.Checkpoint(nil), old.Epochs.Checkpoints...)
	for i := range stripped.Checkpoints {
		stripped.Checkpoints[i].World = nil
		stripped.Checkpoints[i].InputIndex -= cut
	}
	if !reflect.DeepEqual(&stripped, fresh.Epochs) {
		t.Fatal("legacy ring without its blobs, rebased to the input cut, differs from a fresh recording of the same seeds")
	}
	if cut == 0 || !reflect.DeepEqual(old.Inputs.Records[cut:], fresh.Inputs.Records) {
		t.Fatalf("legacy input log from record %d on (%d records) differs from the fresh log (%d records)",
			cut, old.Inputs.Len()-int(cut), fresh.Inputs.Len())
	}
	for i, cp := range fresh.Epochs.Checkpoints {
		if len(cp.World) != 0 {
			t.Fatalf("fresh checkpoint %d carries a %d B world blob", i, len(cp.World))
		}
	}
	if n := len(writeRecording(t, fresh)); n >= len(raw) {
		t.Fatalf("digest-only ring encodes to %d B, the same ring with blobs to %d B", n, len(raw))
	}

	prog, _ := apps.ProgramForBug("mysql-169")
	opts := ReplayOptions{Feedback: true, MaxAttempts: 50, Oracle: MatchBugID("mysql-169")}
	want := Replay(prog, fresh, opts)
	if !want.Reproduced {
		t.Fatalf("fresh recording did not reproduce in %d attempts", want.Attempts)
	}
	if got := Replay(prog, old, opts); !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy replay: %d attempts reproduced=%v, fresh: %d attempts reproduced=%v",
			got.Attempts, got.Reproduced, want.Attempts, want.Reproduced)
	}
}
