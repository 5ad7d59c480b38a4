package core

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/sketch"
)

// The tentpole correctness gate for snapshot-tree search: with
// PrefixSnapshots on, a Workers:1 search must produce the identical
// reproduction result and search trajectory as the snapshot-free
// engine — restores change where the work happens, never what the
// search decides or reproduces. Only the accounting that *describes*
// the saved work may differ: the snapshot counters themselves.

// normalizeSnapshotStats zeroes the fields the snapshot path is
// allowed to change, leaving everything the equivalence property pins.
func normalizeSnapshotStats(r *ReplayResult) *ReplayResult {
	c := *r
	c.Stats.SnapshotHits = 0
	c.Stats.SnapshotMisses = 0
	c.Stats.SnapshotCaptures = 0
	c.Stats.SnapshotEvicted = 0
	c.Stats.SnapshotBytes = 0
	c.Stats.FastForwardSteps = 0
	return &c
}

func TestPropPrefixSnapshotEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-corpus property")
	}
	totalHits := 0
	for _, c := range epochCases {
		prog, ok := apps.ProgramForBug(c.bug)
		if !ok {
			t.Fatalf("%s: program missing", c.bug)
		}
		rec := recordBuggy(t, prog, c.scheme)
		base := ReplayOptions{Feedback: true, Oracle: MatchBugID(c.bug), Workers: 1}
		off := Replay(prog, rec, base)
		on := base
		on.PrefixSnapshots = true
		got := Replay(prog, rec, on)
		totalHits += got.Stats.SnapshotHits
		if !reflect.DeepEqual(normalizeSnapshotStats(off), normalizeSnapshotStats(got)) {
			t.Errorf("%s/%v: snapshot search diverged from baseline:\noff: %+v\non:  %+v",
				c.bug, c.scheme, normalizeSnapshotStats(off), normalizeSnapshotStats(got))
			continue
		}
		// Restores must never be observable in the reproduced schedule:
		// the captured order replays the bug exactly as the baseline's.
		if got.Reproduced {
			out := Reproduce(prog, rec, got.Order)
			if out.Failure == nil || !out.Failure.IsBug() {
				t.Errorf("%s/%v: snapshot search's captured order did not re-reproduce", c.bug, c.scheme)
			}
		}
		// A second snapshot run must be bit-for-bit deterministic,
		// snapshot counters included — the cache is per-search state and
		// Workers:1 commits strictly in order.
		again := Replay(prog, rec, on)
		if !reflect.DeepEqual(got, again) {
			t.Errorf("%s/%v: snapshot search is not deterministic:\na: %+v\nb: %+v",
				c.bug, c.scheme, got, again)
		}
	}
	if totalHits == 0 {
		t.Error("no search restored from any snapshot across the corpus; the property is vacuous")
	}
}

// TestPrefixSnapshotOffIsInert pins the byte-identical-when-disabled
// contract at the options level: the zero value and an explicit false
// run the same engine, so turning the feature off costs nothing.
func TestPrefixSnapshotOffIsInert(t *testing.T) {
	prog := atomBugProg(3)
	rec := recordBuggy(t, prog, sketch.SYNC)
	a := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: MatchBugID("atom-bug"), Workers: 1})
	b := Replay(prog, rec, ReplayOptions{Feedback: true, Oracle: MatchBugID("atom-bug"), Workers: 1, PrefixSnapshots: false})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("PrefixSnapshots: false perturbed the search:\na: %+v\nb: %+v", a, b)
	}
}
