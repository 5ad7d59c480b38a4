package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/sketch"
	"repro/internal/trace"
)

// epochCases pairs corpus programs with schemes for the equivalence
// properties below — coverage across app shapes and sketch densities.
var epochCases = []struct {
	bug    string
	scheme sketch.Scheme
}{
	{"mysql-169", sketch.SYNC},
	{"fft-barrier", sketch.SYNC},
	{"lu-atomicity", sketch.RW},
	{"openldap-deadlock", sketch.SYNC},
	{"pbzip2-order", sketch.SYS},
	{"barnes-order", sketch.FUNC},
}

// TestPropEpochUnboundedByteIdentical is the refactor's no-regression
// gate: recording with an unbounded, checkpoint-free epoch ring
// serializes byte-for-byte identically to the classic whole-execution
// path — epoch sealing observes the committed stream without perturbing
// it, and an unsegmented ring's recording takes the classic layout.
func TestPropEpochUnboundedByteIdentical(t *testing.T) {
	for _, c := range epochCases {
		prog, ok := apps.ProgramForBug(c.bug)
		if !ok {
			t.Fatalf("%s: program missing", c.bug)
		}
		opts := Options{Scheme: c.scheme, Processors: 4, ScheduleSeed: 3, WorldSeed: 1, MaxSteps: 200_000}
		plain := Record(prog, opts)
		epochOpts := opts
		epochOpts.EpochRing = &EpochRingOptions{Steps: 64}
		epoch := Record(prog, epochOpts)

		if epoch.Epochs == nil || epoch.Epochs.Segmented() {
			t.Fatalf("%s/%v: unbounded checkpoint-free ring should be unsegmented", c.bug, c.scheme)
		}
		if !reflect.DeepEqual(plain.Sketch, epoch.Sketch) {
			t.Fatalf("%s/%v: window log differs from whole-execution log", c.bug, c.scheme)
		}
		var a, b bytes.Buffer
		if err := plain.Write(&a); err != nil {
			t.Fatal(err)
		}
		if err := epoch.Write(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s/%v: serialized recordings differ (%d vs %d bytes)", c.bug, c.scheme, a.Len(), b.Len())
		}
	}
}

// TestPropEpochTrajectoryEquivalence: with the ring unbounded and
// checkpoint-free, the search trajectory over an epoch-recorded
// recording is DeepEqual to the classic one — same attempts, same
// reproduction, same captured order, same stats.
func TestPropEpochTrajectoryEquivalence(t *testing.T) {
	checked := 0
	for _, c := range epochCases[:4] {
		prog, _ := apps.ProgramForBug(c.bug)
		oracle := MatchBugID(c.bug)
		for seed := int64(0); seed < 400; seed++ {
			opts := Options{Scheme: c.scheme, Processors: 4, ScheduleSeed: seed, WorldSeed: 1, MaxSteps: 200_000}
			plain := Record(prog, opts)
			f := plain.BugFailure()
			if f == nil || !oracle(f) {
				continue
			}
			epochOpts := opts
			epochOpts.EpochRing = &EpochRingOptions{Steps: 32}
			epoch := Record(prog, epochOpts)
			ropts := ReplayOptions{Feedback: true, Oracle: oracle}
			a := Replay(prog, plain, ropts)
			b := Replay(prog, epoch, ropts)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s/%v seed %d: trajectories differ: %+v vs %+v", c.bug, c.scheme, seed, a, b)
			}
			checked++
			break
		}
	}
	if checked < 3 {
		t.Fatalf("only %d cases manifested; sample too thin", checked)
	}
}

// TestPropReplayFromCheckpointReproduces: on corpus apps, a recording
// made with checkpointing reproduces the same bug when the search
// starts from the newest checkpoint as the classic recording of the
// same seed does from the beginning — and the checkpointed search's
// captured order replays the failure deterministically.
func TestPropReplayFromCheckpointReproduces(t *testing.T) {
	// Five corpus apps whose buggy runs live long enough to seal at
	// least one checkpoint before dying (short-lived bugs like
	// lu-atomicity crash within the first couple of epochs — nothing to
	// checkpoint, so nothing to start from).
	bugs := []string{"mysql-169", "fft-barrier", "pbzip2-order", "openldap-deadlock", "apache-25520"}
	checked := 0
	for _, id := range bugs {
		prog, ok := apps.ProgramForBug(id)
		if !ok {
			t.Fatalf("%s: program missing", id)
		}
		oracle := MatchBugID(id)
		var rec *Recording
		var opts Options
		for seed := int64(0); seed < 400; seed++ {
			opts = Options{
				Scheme: sketch.SYNC, Processors: 4, ScheduleSeed: seed, WorldSeed: 1, MaxSteps: 200_000,
				EpochRing: &EpochRingOptions{Steps: 32, CheckpointEvery: 2},
			}
			r := Record(prog, opts)
			if f := r.BugFailure(); f != nil && oracle(f) && len(r.Epochs.Checkpoints) > 0 {
				rec = r
				break
			}
		}
		if rec == nil {
			continue // bug or checkpoint too rare at this probe budget
		}
		checked++

		opts.EpochRing = nil
		base := Replay(prog, Record(prog, opts), ReplayOptions{Feedback: true, Oracle: oracle})
		cp := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: oracle})
		if !base.Reproduced {
			t.Fatalf("%s: whole-execution replay failed to reproduce", id)
		}
		if !cp.Reproduced {
			t.Fatalf("%s: replay from checkpoint failed to reproduce (%d attempts, stats %+v)", id, cp.Attempts, cp.Stats)
		}
		if !oracle(cp.Failure) {
			t.Fatalf("%s: checkpointed replay reproduced a different failure: %v", id, cp.Failure)
		}
		out := Reproduce(prog, rec, cp.Order)
		if out.Failure == nil || !oracle(out.Failure) {
			t.Fatalf("%s: checkpointed search's captured order lost the bug: %v", id, out.Failure)
		}
		t.Logf("%s: from-start %d attempts, from-checkpoint %d attempts (%d checkpoints)",
			id, base.Attempts, cp.Attempts, len(rec.Epochs.Checkpoints))
	}
	if checked < len(bugs) {
		t.Fatalf("only %d of %d bugs manifested with checkpoints; sample too thin", checked, len(bugs))
	}
}

// TestEpochContainerRoundTrip: a segmented recording (bounded ring plus
// checkpoints) round-trips through Write/ReadRecording — epoch
// structure, checkpoints and the window's log view all survive, and the
// result passes Validate.
func TestEpochContainerRoundTrip(t *testing.T) {
	prog, _ := apps.ProgramForBug("mysql-169")
	opts := Options{Scheme: sketch.SYNC, Processors: 4, ScheduleSeed: 3, WorldSeed: 1, MaxSteps: 200_000,
		EpochRing: &EpochRingOptions{Steps: 24, Size: 4, CheckpointEvery: 1}}
	rec := Record(prog, opts)
	if rec.Epochs == nil || !rec.Epochs.Segmented() {
		t.Fatal("bounded checkpointed ring should be segmented")
	}
	if err := rec.Validate(); err != nil {
		t.Fatalf("recorded ring invalid: %v", err)
	}

	var buf bytes.Buffer
	if err := rec.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[:4]; string(got) != trace.EpochContainerMagic {
		t.Fatalf("container starts with %q, want %q", got, trace.EpochContainerMagic)
	}
	back, err := ReadRecording(&buf, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Epochs, rec.Epochs) {
		t.Fatal("epoch ring did not round-trip")
	}
	if !reflect.DeepEqual(back.Sketch, rec.Sketch) {
		t.Fatal("window log did not round-trip")
	}
	if back.Inputs.Len() != rec.Inputs.Len() {
		t.Fatalf("input log %d records, want %d", back.Inputs.Len(), rec.Inputs.Len())
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("decoded recording invalid: %v", err)
	}
}

// TestEpochRingBoundsMemory: with a bounded ring, the retained window's
// entry high-water mark stays within Size epochs' worth of entries
// while the whole-run totals keep counting — the always-on recording's
// memory bound.
func TestEpochRingBoundsMemory(t *testing.T) {
	prog, _ := apps.ProgramForBug("lu-atomicity")
	rec := Record(prog, Options{
		Scheme: sketch.RW, Processors: 4, ScheduleSeed: 3, WorldSeed: 1, MaxSteps: 200_000,
		EpochRing: &EpochRingOptions{Steps: 16, Size: 3},
	})
	ring := rec.Epochs
	if ring == nil {
		t.Fatal("no epoch ring recorded")
	}
	if len(ring.Epochs) > 3 {
		t.Fatalf("ring holds %d epochs, capacity 3", len(ring.Epochs))
	}
	if ring.Evicted == 0 {
		t.Fatal("expected evictions under a 3-epoch ring; run too short or epochs too long")
	}
	whole := Record(prog, Options{Scheme: sketch.RW, Processors: 4, ScheduleSeed: 3, WorldSeed: 1, MaxSteps: 200_000})
	if ring.TotalOps != whole.Sketch.TotalOps || ring.Records != whole.Sketch.Records {
		t.Fatalf("whole-run totals drifted: ring %d/%d vs classic %d/%d",
			ring.TotalOps, ring.Records, whole.Sketch.TotalOps, whole.Sketch.Records)
	}
	if uint64(rec.Sketch.Len())+ring.EvictedEntries != uint64(whole.Sketch.Len()) {
		t.Fatalf("window %d + evicted %d != whole %d", rec.Sketch.Len(), ring.EvictedEntries, whole.Sketch.Len())
	}
}

// TestEpochRingBoundsInputLog: an always-on recording keeps input
// records only from its oldest retained checkpoint on, so its input log
// and its file stop growing with uptime. mysqld is recorded in the
// always-on ring at two scales that both overflow it; the run doubles,
// while the retained inputs and the file grow by well under that. The
// first retained checkpoint indexes the start of the retained log, the
// retained records are the tail of the classic recording's log, and
// pres_record_epoch_inputs_evicted_total counts the rest.
func TestEpochRingBoundsInputLog(t *testing.T) {
	prog, _ := apps.Get("mysqld")
	type sample struct {
		steps    uint64
		inputs   int
		logBytes int
	}
	var got []sample
	for _, scale := range []int{1600, 3200} {
		opts := Options{Scheme: sketch.SYNC, Processors: 4, ScheduleSeed: 1, WorldSeed: 1, Scale: scale, FixBugs: true}
		classic := Record(prog, opts)
		opts.EpochRing = &writeGoldenRing
		opts.Metrics = obs.NewRegistry()
		rec := Record(prog, opts)
		ring := rec.Epochs
		if ring.Evicted == 0 || len(ring.Checkpoints) == 0 {
			t.Fatalf("scale %d: ring evicted %d epochs and kept %d checkpoints, want an overflowing checkpointed ring",
				scale, ring.Evicted, len(ring.Checkpoints))
		}
		if in := ring.Checkpoints[0].InputIndex; in != 0 {
			t.Fatalf("scale %d: oldest checkpoint indexes input %d, want 0", scale, in)
		}
		cut := classic.Inputs.Len() - rec.Inputs.Len()
		if cut <= 0 || !reflect.DeepEqual(rec.Inputs.Records, classic.Inputs.Records[cut:]) {
			t.Fatalf("scale %d: %d retained input records are not the tail of the classic log's %d",
				scale, rec.Inputs.Len(), classic.Inputs.Len())
		}
		if n := opts.Metrics.Counter("pres_record_epoch_inputs_evicted_total", "scheme", "SYNC").Value(); n != uint64(cut) {
			t.Fatalf("scale %d: pres_record_epoch_inputs_evicted_total = %d, want %d", scale, n, cut)
		}
		got = append(got, sample{rec.Result.Steps, rec.Inputs.Len(), rec.LogBytes()})
		t.Logf("scale %d: %d steps, %d of %d inputs retained, %d B", scale, rec.Result.Steps, rec.Inputs.Len(), classic.Inputs.Len(), rec.LogBytes())
	}
	lo, hi := got[0], got[1]
	if float64(hi.steps) < 1.8*float64(lo.steps) {
		t.Fatalf("steps %d -> %d: the larger scale does not run about twice as long", lo.steps, hi.steps)
	}
	if float64(hi.inputs) > 1.3*float64(lo.inputs) {
		t.Fatalf("retained inputs %d -> %d grow with uptime", lo.inputs, hi.inputs)
	}
	if float64(hi.logBytes) > 1.3*float64(lo.logBytes) {
		t.Fatalf("recording %d -> %d B grows with uptime", lo.logBytes, hi.logBytes)
	}
}

// TestEpochRingCutKeepsACheckpoint: over ring geometries and epoch
// lengths that end the run at different points of the checkpoint
// cadence, the retained input log is always the tail of the classic
// recording's log, and a cut log always comes with a checkpoint whose
// InputIndex is 0: replay never starts a recording whose first inputs
// are gone from process start. A ring whose cadence outruns its
// capacity (CheckpointEvery > Size) keeps the whole log.
func TestEpochRingCutKeepsACheckpoint(t *testing.T) {
	prog, _ := apps.Get("mysqld")
	base := Options{Scheme: sketch.SYNC, Processors: 4, ScheduleSeed: 1, WorldSeed: 1, Scale: 100, FixBugs: true}
	classic := Record(prog, base)
	whole := classic.Inputs.Records
	cuts, bare := 0, 0
	for _, steps := range []uint64{16, 23, 37} {
		for size := 0; size <= 4; size++ {
			for every := 1; every <= 6; every++ {
				geo := EpochRingOptions{Steps: steps, Size: size, CheckpointEvery: every}
				opts := base
				opts.EpochRing = &geo
				rec := Record(prog, opts)
				if err := rec.Validate(); err != nil {
					t.Fatalf("%+v: %v", geo, err)
				}
				cut := len(whole) - rec.Inputs.Len()
				if cut < 0 || !reflect.DeepEqual(rec.Inputs.Records, whole[cut:]) {
					t.Fatalf("%+v: %d retained input records are not the tail of the classic log's %d", geo, rec.Inputs.Len(), len(whole))
				}
				cp := rec.Epochs.Checkpoints
				switch {
				case cut > 0 && (len(cp) == 0 || cp[0].InputIndex != 0):
					t.Fatalf("%+v: %d input records cut, but the ring keeps %d checkpoints (%+v)", geo, cut, len(cp), cp)
				case cut > 0 && size > 0 && every > size:
					t.Fatalf("%+v: cadence outruns capacity, yet %d input records were cut", geo, cut)
				case cut > 0:
					cuts++
				case len(cp) == 0 && rec.Epochs.Evicted > 0:
					bare++
				}
			}
		}
	}
	if cuts == 0 || bare == 0 {
		t.Fatalf("%d geometries cut their input log and %d ended with no checkpoint; want both", cuts, bare)
	}
	t.Logf("classic log %d records; %d geometries cut it, %d evicted every checkpoint and kept it whole", len(whole), cuts, bare)
}
