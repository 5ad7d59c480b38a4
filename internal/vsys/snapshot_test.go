package vsys

import (
	"bytes"
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
)

// TestWorldDigestSensitivity pins the digest as the boundary check a
// replayer relies on: every piece of state a snapshot covers must move
// the digest on its own, and two worlds driven through the same
// operations must digest equal.
func TestWorldDigestSensitivity(t *testing.T) {
	log := &trace.InputLog{}
	log.Append(trace.InputRecord{TID: 0, Call: CallRand, Data: encodeU64(7)})
	newBase := func(replay bool) *World {
		w := NewWorld(42)
		w.SeedFile("f", []byte("hello"))
		w.NewQueue("q").msgs = [][]byte{[]byte("m")}
		if replay {
			w.StartReplay(log)
		}
		return w
	}
	cases := []struct {
		name   string
		replay bool
		op     func(w *World, th *sched.Thread)
	}{
		{"clock", false, func(w *World, th *sched.Thread) { w.Sleep(th, 5) }},
		{"file bytes", false, func(w *World, th *sched.Thread) { w.Open(th, "f").Write(th, []byte("J")) }},
		{"new file", false, func(w *World, th *sched.Thread) { w.Open(th, "g") }},
		{"unlink", false, func(w *World, th *sched.Thread) { w.Unlink(th, "f") }},
		{"queued message", false, func(w *World, th *sched.Thread) { w.NewQueue("q").Send(th, []byte("n")) }},
		{"queue close", false, func(w *World, th *sched.Thread) { w.NewQueue("q").Close(th) }},
		{"new queue", false, func(w *World, th *sched.Thread) { w.NewQueue("r") }},
		{"rng draw", false, func(w *World, th *sched.Thread) { w.Rand(th) }},
		// Served from the log: the cursor moves, the rng does not.
		{"replay cursor", true, func(w *World, th *sched.Thread) { w.input(0, CallRand, w.randU64) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			drive := func() *World {
				w := newBase(tc.replay)
				if res := runL(t, func(th *sched.Thread) { tc.op(w, th) }); res.Failure != nil {
					t.Fatal(res.Failure)
				}
				return w
			}
			base := newBase(tc.replay).Digest()
			a, b := drive(), drive()
			if a.Digest() == base {
				t.Fatalf("digest %#x unchanged by the mutation", base)
			}
			if a.Digest() != b.Digest() {
				t.Fatalf("same operations, different digests: %#x vs %#x", a.Digest(), b.Digest())
			}
			if tc.replay && a.draws != 0 {
				t.Fatalf("replay cursor case drew %d fresh values", a.draws)
			}
		})
	}
}

// TestSnapshotRestoreRoundTrip checks restore by re-execution: a fresh
// world driven through the same prefix arrives at a byte-identical
// snapshot, the same digest, the same file and queue contents, and the
// same position in the random stream as the world the snapshot was
// taken on.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	prefix := func(w *World, th *sched.Thread) {
		fd := w.Open(th, "data.log")
		fd.Write(th, []byte("J"))
		w.NewQueue("reqs").Send(th, []byte("a"))
		w.NewQueue("reqs").Send(th, []byte("b"))
		w.Sleep(th, 100)
		w.Rand(th)
		w.Rand(th)
	}
	newWorld := func() *World {
		w := NewWorld(42)
		w.SeedFile("data.log", []byte("hello"))
		return w
	}

	rec := newWorld()
	var snap []byte
	var want, wantDraw uint64
	res := runL(t, func(th *sched.Thread) {
		prefix(rec, th)
		snap, want = rec.Snapshot(), rec.Digest()
		wantDraw = rec.Rand(th) // next value in the stream after the boundary
		// Keep mutating everything the snapshot covers.
		rec.Open(th, "extra.log")
		rec.NewQueue("reqs").Close(th)
		rec.Sleep(th, 5)
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}

	re := newWorld()
	var gotDraw uint64
	res = runL(t, func(th *sched.Thread) {
		prefix(re, th)
		if got := re.Snapshot(); !bytes.Equal(got, snap) {
			t.Errorf("re-executed snapshot = %x, want %x", got, snap)
		}
		if got := re.Digest(); got != want {
			t.Errorf("re-executed digest = %#x, want %#x", got, want)
		}
		gotDraw = re.Rand(th)
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
	if gotDraw != wantDraw {
		t.Fatalf("rng draw after the boundary = %#x, want %#x", gotDraw, wantDraw)
	}
	if got := re.fs["data.log"].data; !bytes.Equal(got, []byte("Jello")) {
		t.Fatalf("file data = %q, want %q", got, "Jello")
	}
	if _, ok := re.fs["extra.log"]; ok {
		t.Fatal("file created past the boundary exists in the re-executed world")
	}
	if q := re.qs["reqs"]; q.closed || len(q.msgs) != 2 || !bytes.Equal(q.msgs[0], []byte("a")) {
		t.Fatalf("queue state not re-established: closed=%v msgs=%q", q.closed, q.msgs)
	}
}

// TestSnapshotRestoreInPlace pins the aliasing contract of the blob a
// checkpoint keeps: the world goes on mutating its file and queue
// objects in place after the snapshot, and none of that may show
// through the stored bytes.
func TestSnapshotRestoreInPlace(t *testing.T) {
	w := NewWorld(1)
	w.SeedFile("f", []byte("x"))
	q := w.NewQueue("q")
	q.msgs = [][]byte{[]byte("m")}

	snap := w.Snapshot()
	kept := append([]byte(nil), snap...)
	w.fs["f"].data[0] = 'y'
	q.msgs[0][0] = 'n'
	q.msgs = append(q.msgs, []byte("o"))
	q.closed = true
	if !bytes.Equal(snap, kept) {
		t.Fatalf("stored snapshot changed under in-place mutation: %x, was %x", snap, kept)
	}
	if bytes.Equal(w.Snapshot(), kept) {
		t.Fatal("mutated world still snapshots equal to the stored blob")
	}
}

// TestSnapshotReplayCursor checks a replay-mode world's per-thread
// input cursors are part of the boundary: re-executing the same
// consumption arrives at the same snapshot, and the re-executed world
// resumes each thread's logged input sequence from there.
func TestSnapshotReplayCursor(t *testing.T) {
	log := &trace.InputLog{}
	for i := uint64(0); i < 4; i++ {
		log.Append(trace.InputRecord{TID: 1, Call: CallRand, Data: encodeU64(100 + i)})
	}
	log.Append(trace.InputRecord{TID: 2, Call: CallNow, Data: encodeU64(777)})
	none := func() uint64 { return 0 }
	newWorld := func() *World {
		w := NewWorld(7)
		w.StartReplay(log)
		return w
	}

	rec := newWorld()
	if got := rec.input(1, CallRand, none); got != 100 {
		t.Fatalf("first replay input = %d, want 100", got)
	}
	snap := rec.Snapshot()
	// Consume past the boundary: the recording world's digest moves on.
	rec.input(1, CallRand, none)
	rec.input(2, CallNow, none)
	if bytes.Equal(rec.Snapshot(), snap) {
		t.Fatal("cursor advance past the boundary left the snapshot unchanged")
	}

	re := newWorld()
	re.input(1, CallRand, none)
	if got := re.Snapshot(); !bytes.Equal(got, snap) {
		t.Fatalf("re-executed snapshot = %x, want %x", got, snap)
	}
	if got := re.input(1, CallRand, none); got != 101 {
		t.Fatalf("post-boundary input = %d, want 101", got)
	}
	if got := re.input(2, CallNow, none); got != 777 {
		t.Fatalf("post-boundary tid-2 input = %d, want 777", got)
	}

	// The other order of the same consumption is a different boundary.
	other := newWorld()
	other.input(2, CallNow, none)
	if other.Digest() == rec.Digest() || bytes.Equal(other.Snapshot(), snap) {
		t.Fatal("tid-2 cursor advance digests equal to the tid-1 boundary")
	}
}

// TestRestoreRejectsCorrupt checks the snapshot wire cannot make two
// different worlds look alike, so a re-executed prefix that strayed
// is rejected by the digest check: every name, file body and message
// is length-prefixed, files and queues are separate sections, and the
// blob opens with its magic.
func TestRestoreRejectsCorrupt(t *testing.T) {
	pairs := []struct {
		name string
		a, b func(w *World)
	}{
		{"file name vs body",
			func(w *World) { w.SeedFile("ab", []byte("c")) },
			func(w *World) { w.SeedFile("a", []byte("bc")) }},
		{"message split",
			func(w *World) { w.NewQueue("q").msgs = [][]byte{[]byte("ab")} },
			func(w *World) { w.NewQueue("q").msgs = [][]byte{[]byte("a"), []byte("b")} }},
		{"file vs queue",
			func(w *World) { w.SeedFile("x", nil) },
			func(w *World) { w.NewQueue("x") }},
		{"empty file vs none",
			func(w *World) { w.SeedFile("x", nil) },
			func(w *World) {}},
		{"empty message vs none",
			func(w *World) { w.NewQueue("q").msgs = [][]byte{{}} },
			func(w *World) { w.NewQueue("q") }},
	}
	for _, p := range pairs {
		a, b := NewWorld(3), NewWorld(3)
		p.a(a)
		p.b(b)
		if bytes.Equal(a.Snapshot(), b.Snapshot()) || a.Digest() == b.Digest() {
			t.Errorf("%s: different worlds snapshot alike", p.name)
		}
	}
	if snap := NewWorld(3).Snapshot(); !bytes.HasPrefix(snap, []byte(snapMagic)) {
		t.Fatalf("snapshot %x does not open with %q", snap, snapMagic)
	}
}
