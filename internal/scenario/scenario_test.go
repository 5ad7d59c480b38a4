package scenario

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sketch"
)

// outcome classifies how a production run ended.
type outcome uint8

const (
	clean    outcome = iota // no failure
	bug                     // a corpus assertion bug (ReasonAssert with a bug id)
	crash                   // the run panicked
	deadlock                // no runnable thread
	other                   // step limit, divergence, cancellation
)

func (o outcome) String() string {
	return [...]string{"clean", "bug", "crash", "deadlock", "other"}[o]
}

func classify(f *sched.Failure) outcome {
	switch {
	case f == nil:
		return clean
	case f.Reason == sched.ReasonAssert && f.BugID != "":
		return bug
	case f.Reason == sched.ReasonCrash:
		return crash
	case f.Reason == sched.ReasonDeadlock:
		return deadlock
	default:
		return other
	}
}

// baseline pins the outcome each corpus app reaches within the seed
// budget at the scenario settings (SYNC, 4 procs, preempt 0.05, world
// seed 1). aget, barnes and lu pin the clean control: a clean run is
// the outcome their rows check at these settings.
var baseline = map[string]outcome{
	"aget":         clean,
	"apached":      bug,
	"barnes":       clean,
	"cherokeed":    bug,
	"fft":          bug,
	"lu":           clean,
	"mysqld":       bug,
	"openldapd":    deadlock,
	"pbzip2":       bug,
	"radix":        deadlock,
	"transmission": bug,
}

// ringGeometry bounds the variant recordings: short epochs, a 4-epoch
// window, a checkpoint every seal. A failure that predates the first
// checkpoint falls back to from-start replay; the expectation must hold
// either way.
var ringGeometry = core.EpochRingOptions{Steps: 64, Size: 4, CheckpointEvery: 1}

// runBaseline searches production seeds of app for want, then, for a
// failure, replays the recording to reproduction and re-executes the
// captured order to the same outcome. A non-nil ring records into an
// epoch ring, so the replay starts from the newest retained checkpoint.
func runBaseline(t *testing.T, app string, want outcome, ring *core.EpochRingOptions) {
	t.Helper()
	prog, ok := apps.Get(app)
	if !ok {
		t.Fatalf("unknown app %q", app)
	}
	var cfg Config
	var rec *core.Recording
	for seed := int64(0); seed < int64(cfg.seedBudget()) && rec == nil; seed++ {
		r := core.Record(prog, core.Options{
			Scheme:       sketch.SYNC,
			Processors:   cfg.processors(),
			Preempt:      preempt,
			ScheduleSeed: seed,
			WorldSeed:    worldSeed,
			MaxSteps:     maxSteps,
			EpochRing:    ring,
		})
		if classify(r.Result.Failure) == want {
			rec = r
		}
	}
	if rec == nil {
		t.Fatalf("%s never produced %v in %d seeds", app, want, cfg.seedBudget())
	}
	if want == clean {
		return
	}
	oracle := core.MatchBugID(rec.Result.Failure.BugID)
	if want == deadlock {
		oracle = func(f *sched.Failure) bool { return f.Reason == sched.ReasonDeadlock }
	}
	rep := core.Replay(prog, rec, core.ReplayOptions{
		Feedback:    true,
		MaxAttempts: cfg.maxAttempts(),
		Oracle:      oracle,
	})
	if !rep.Reproduced || rep.Attempts < 1 {
		t.Fatalf("%s: %v not reproduced in %d attempts", app, want, rep.Attempts)
	}
	if got := classify(core.Reproduce(prog, rec, rep.Order).Failure); got != want {
		t.Fatalf("%s: captured order replays as %v, want %v", app, got, want)
	}
}

// TestMatrix drives every corpus app's uninjected baseline end to end:
// the pinned outcome is found within the seed budget, replays to
// reproduction, and the captured order re-executes to the same outcome.
func TestMatrix(t *testing.T) {
	for _, app := range apps.All() {
		app := app.Name
		t.Run(app+"/baseline", func(t *testing.T) {
			runBaseline(t, app, baseline[app], nil)
		})
	}
}

// TestVariants drives the failing baseline cells with the recording
// bounded to an epoch ring: the failure must still be found and
// reproduced from the newest retained checkpoint.
func TestVariants(t *testing.T) {
	for _, app := range []string{"mysqld", "openldapd", "radix"} {
		app := app
		t.Run(app+"/baseline+ring", func(t *testing.T) {
			g := ringGeometry
			runBaseline(t, app, baseline[app], &g)
		})
	}
}

// TestMatrixShape: the baseline table pins every corpus app and nothing
// else, so adding an app without pinning its outcome is a test failure,
// not a silent gap.
func TestMatrixShape(t *testing.T) {
	if len(baseline) != len(apps.All()) {
		t.Fatalf("baseline pins %d apps, corpus has %d", len(baseline), len(apps.All()))
	}
	for _, app := range apps.All() {
		if o, ok := baseline[app.Name]; !ok || o == other {
			t.Errorf("app %s has no pinned baseline outcome", app.Name)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		f    *sched.Failure
		want outcome
	}{
		{nil, clean},
		{&sched.Failure{Reason: sched.ReasonAssert, BugID: "x"}, bug},
		{&sched.Failure{Reason: sched.ReasonCrash}, crash},
		{&sched.Failure{Reason: sched.ReasonDeadlock}, deadlock},
		{&sched.Failure{Reason: sched.ReasonStepLimit}, other},
		{&sched.Failure{Reason: sched.ReasonAssert}, other}, // no bug id
	}
	for _, c := range cases {
		if got := classify(c.f); got != c.want {
			t.Errorf("classify(%+v) = %v, want %v", c.f, got, c.want)
		}
	}
	if s := fmt.Sprint(deadlock); s != "deadlock" {
		t.Errorf("deadlock prints as %q", s)
	}
}
