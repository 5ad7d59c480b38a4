package vsys

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
)

func runL(t *testing.T, root func(*sched.Thread)) *sched.Result {
	t.Helper()
	return sched.Run(root, sched.Config{Strategy: sched.Lowest{}})
}

func TestFileWriteRead(t *testing.T) {
	res := runL(t, func(th *sched.Thread) {
		w := NewWorld(1)
		fd := w.Open(th, "/var/log/app.log")
		fd.Write(th, []byte("hello "))
		fd.Write(th, []byte("world"))
		fd.Close(th)

		rd := w.Open(th, "/var/log/app.log")
		buf := make([]byte, 64)
		n := rd.Read(th, buf)
		if string(buf[:n]) != "hello world" {
			th.Fail("t", "read %q", buf[:n])
		}
		if rd.Read(th, buf) != 0 {
			th.Fail("t", "expected EOF")
		}
		rd.Close(th)
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
}

func TestFileSizeAndSeed(t *testing.T) {
	w := NewWorld(1)
	w.SeedFile("/etc/conf", []byte("abc"))
	if w.FileSize("/etc/conf") != 3 {
		t.Fatal("seeded size wrong")
	}
	if w.FileSize("/missing") != -1 {
		t.Fatal("missing file should be -1")
	}
	res := runL(t, func(th *sched.Thread) {
		fd := w.Open(th, "/etc/conf")
		buf := make([]byte, 8)
		if n := fd.Read(th, buf); string(buf[:n]) != "abc" {
			th.Fail("t", "read %q", buf[:n])
		}
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
}

func TestUnlink(t *testing.T) {
	res := runL(t, func(th *sched.Thread) {
		w := NewWorld(1)
		fd := w.Open(th, "/tmp/x")
		fd.Write(th, []byte("data"))
		w.Unlink(th, "/tmp/x")
		if w.FileSize("/tmp/x") != -1 {
			th.Fail("t", "file survived unlink")
		}
		// Reopening creates a fresh file.
		fd2 := w.Open(th, "/tmp/x")
		buf := make([]byte, 8)
		if fd2.Read(th, buf) != 0 {
			th.Fail("t", "fresh file not empty")
		}
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
}

func TestClockMonotonic(t *testing.T) {
	res := runL(t, func(th *sched.Thread) {
		w := NewWorld(1)
		a := w.Now(th)
		w.Sleep(th, 100)
		b := w.Now(th)
		if b <= a {
			th.Fail("t", "clock went backwards: %d then %d", a, b)
		}
		if b-a < 100 {
			th.Fail("t", "sleep did not advance clock")
		}
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
}

func TestRandDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []uint64 {
		var out []uint64
		runL(t, func(th *sched.Thread) {
			w := NewWorld(seed)
			for i := 0; i < 5; i++ {
				out = append(out, w.Rand(th))
			}
		})
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce draws")
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical draws")
	}
}

func TestQueueSendRecv(t *testing.T) {
	res := runL(t, func(th *sched.Thread) {
		w := NewWorld(1)
		q := w.NewQueue("sock")
		cons := th.Spawn("consumer", func(ct *sched.Thread) {
			msg, ok := q.Recv(ct) // blocks until the producer sends
			if !ok || string(msg) != "req-1" {
				ct.Fail("t", "recv = %q ok=%v", msg, ok)
			}
		})
		q.Send(th, []byte("req-1"))
		th.Join(cons)
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
}

func TestQueueCloseDrains(t *testing.T) {
	res := runL(t, func(th *sched.Thread) {
		w := NewWorld(1)
		q := w.NewQueue("sock")
		q.Send(th, []byte("a"))
		q.Close(th)
		if msg, ok := q.Recv(th); !ok || string(msg) != "a" {
			th.Fail("t", "drain failed: %q %v", msg, ok)
		}
		if _, ok := q.Recv(th); ok {
			th.Fail("t", "recv after drain should report closed")
		}
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
}

func TestQueueNamedLookup(t *testing.T) {
	w := NewWorld(1)
	if w.NewQueue("q") != w.NewQueue("q") {
		t.Fatal("same name must return same queue")
	}
}

func TestRecordReplayInputs(t *testing.T) {
	log := &trace.InputLog{}
	var recorded []uint64
	res := runL(t, func(th *sched.Thread) {
		w := NewWorld(3)
		w.StartRecording(log)
		for i := 0; i < 4; i++ {
			recorded = append(recorded, w.Rand(th))
		}
		recorded = append(recorded, w.Now(th))
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
	if log.Len() != 5 {
		t.Fatalf("input log has %d records, want 5", log.Len())
	}

	// Replay with a *different* seed: the logged values must win.
	var replayed []uint64
	res = runL(t, func(th *sched.Thread) {
		w := NewWorld(999)
		w.StartReplay(log)
		for i := 0; i < 4; i++ {
			replayed = append(replayed, w.Rand(th))
		}
		replayed = append(replayed, w.Now(th))
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
	for i := range recorded {
		if recorded[i] != replayed[i] {
			t.Fatalf("input %d: recorded %d, replayed %d", i, recorded[i], replayed[i])
		}
	}
}

func TestReplayPerThreadStreams(t *testing.T) {
	// Two threads draw interleaved inputs during recording; a replay
	// with a different interleaving must still hand each thread its own
	// recorded sequence.
	log := &trace.InputLog{}
	perThread := map[int][]uint64{}
	record := func(strategy sched.Strategy, w *World, sink map[int][]uint64) *sched.Result {
		return sched.Run(func(th *sched.Thread) {
			var ts []*sched.Thread
			for i := 0; i < 2; i++ {
				i := i
				ts = append(ts, th.Spawn("w", func(ct *sched.Thread) {
					for j := 0; j < 3; j++ {
						sink[i] = append(sink[i], w.Rand(ct))
						ct.Yield()
					}
				}))
			}
			for _, h := range ts {
				th.Join(h)
			}
		}, sched.Config{Strategy: strategy})
	}

	w := NewWorld(11)
	w.StartRecording(log)
	if res := record(sched.NewRandomMP(4, 0.2, 5), w, perThread); res.Failure != nil {
		t.Fatal(res.Failure)
	}

	got := map[int][]uint64{}
	w2 := NewWorld(999)
	w2.StartReplay(log)
	if res := record(sched.NewRandomMP(4, 0.2, 77), w2, got); res.Failure != nil {
		t.Fatal(res.Failure)
	}
	for i := 0; i < 2; i++ {
		if len(got[i]) != len(perThread[i]) {
			t.Fatalf("thread %d drew %d inputs, want %d", i, len(got[i]), len(perThread[i]))
		}
		for j := range got[i] {
			if got[i][j] != perThread[i][j] {
				t.Fatalf("thread %d input %d mismatch", i, j)
			}
		}
	}
}

// TestLazySourceDrawsAsEager pins the lazy random source: a world
// whose source is built on the first draw yields the same values as one
// whose source exists from the start, including when live draws begin
// only after a replay log runs dry, and a world that never draws never
// builds one.
func TestLazySourceDrawsAsEager(t *testing.T) {
	const seed = 42
	eager := rand.New(rand.NewSource(seed))
	var want []uint64
	for i := 0; i < 8; i++ {
		want = append(want, eager.Uint64())
	}
	log := &trace.InputLog{}
	var got []uint64
	var idle *World
	runL(t, func(th *sched.Thread) {
		idle = NewWorld(seed)
		w := NewWorld(seed)
		w.StartReplay(log) // empty log: every draw falls back to the source
		for i := 0; i < len(want); i++ {
			got = append(got, w.Rand(th))
		}
	})
	if !slices.Equal(got, want) {
		t.Fatalf("lazy draws %v, want the eager source's %v", got, want)
	}
	if idle.rng != nil {
		t.Fatal("a world that never drew built its random source")
	}
}

func TestReplayDryLogFallsBack(t *testing.T) {
	log := &trace.InputLog{}
	res := runL(t, func(th *sched.Thread) {
		w := NewWorld(1)
		w.StartReplay(log) // empty log
		w.Rand(th)         // must not panic
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
}

func TestCallNames(t *testing.T) {
	for code := CallOpen; code <= CallCloseQueue; code++ {
		if CallName(code) == "call(?)" {
			t.Fatalf("call %d has no name", code)
		}
	}
	if CallName(9999) != "call(?)" {
		t.Fatal("unknown code should be call(?)")
	}
}

func TestWriteOverwriteExtends(t *testing.T) {
	res := runL(t, func(th *sched.Thread) {
		w := NewWorld(1)
		a := w.Open(th, "f")
		a.Write(th, []byte("abcdef"))
		b := w.Open(th, "f") // independent offset
		b.Write(th, []byte("XY"))
		buf := make([]byte, 16)
		rd := w.Open(th, "f")
		n := rd.Read(th, buf)
		if !bytes.Equal(buf[:n], []byte("XYcdef")) {
			th.Fail("t", "contents %q", buf[:n])
		}
	})
	if res.Failure != nil {
		t.Fatal(res.Failure)
	}
}
