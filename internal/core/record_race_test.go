package core

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/sketch"
)

// TestRecordConcurrentRaceClean: concurrent recordings share nothing —
// run under -race (as `make check` does), N parallel Records of the
// same program must all be byte-identical to a reference recording.
// This is the stress gate for the recorder's freedom from hidden
// shared state.
func TestRecordConcurrentRaceClean(t *testing.T) {
	prog, ok := apps.Get("fft")
	if !ok {
		t.Fatal("unknown corpus app fft")
	}
	opt := Options{Scheme: sketch.RW, Processors: 4, ScheduleSeed: 7, WorldSeed: 11, MaxSteps: 400_000}
	var refBuf bytes.Buffer
	if err := Record(prog, opt).Write(&refBuf); err != nil {
		t.Fatal(err)
	}
	ref := refBuf.Bytes()
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if err := Record(prog, opt).Write(&buf); err != nil {
				errs[w] = err.Error()
				return
			}
			if !bytes.Equal(buf.Bytes(), ref) {
				errs[w] = "recording differs from reference"
			}
		}()
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Fatalf("worker %d: %s", w, e)
		}
	}
}
