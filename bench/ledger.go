package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/appkit"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/race"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/ssync"
	"repro/internal/trace"
	"repro/internal/vsys"
)

// ledgerSize bounds how many inputs each ledger probe prices: enough to
// cover every program of a workload, few enough that the traced run's
// probes stay within seconds.
type ledgerSize struct {
	records  int // record-path probe inputs
	probes   int // bugs a record workload's search probe scans for
	searches int // searches re-run for the race probe
	ablation int // searches re-run for the snapshot and worker ablations
	substep  int // steps of each substrate micro-program
}

func sizeFor(sp spec, quick bool) ledgerSize {
	if quick {
		return ledgerSize{records: 2, probes: min(1, len(probeBugs(sp.apps))), searches: 1, ablation: 1, substep: 2000}
	}
	n := len(sp.apps)
	if n == 0 {
		n = 12
	}
	return ledgerSize{records: n, probes: len(probeBugs(sp.apps)), searches: 8, ablation: 2, substep: 20000}
}

// ledger prices each layer on the workload's own programs. samples are
// the traced run's measured operations; a record workload has no
// searches of its own, so the search-side probes run on buggy
// recordings of the same programs, scanned here.
func ledger(sp spec, w workload, samples []sample, sz ledgerSize, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}

	var recIn []recordInput
	var searches []sample
	switch w := w.(type) {
	case *recordWorkload:
		recIn = w.pool[:min(sz.records, len(w.pool))]
		probe, err := newDiagWorkload(sp.name+"/probe", probeBugs(sp.apps)[:sz.probes], 1, 1)
		if err != nil {
			return nil, err
		}
		for i := range probe.pool {
			s, err := probe.op(i, tr)
			if err != nil {
				return nil, err
			}
			searches = append(searches, s)
		}
	case *diagWorkload:
		for _, i := range evenly(len(w.pool), sz.records) {
			recIn = append(recIn, recordInput{w.pool[i].prog, w.pool[i].opts})
		}
		searches = samples
	}

	if err := recordLedger(recIn, m, tr); err != nil {
		return nil, err
	}
	substrateLedger(sz.substep, m)
	orderNs, raceNs := searchLedger(distinct(searches, sz.searches), searches, m, tr)
	searchNs, err := ablationLedger(deepest(searches, sz.ablation), m, tr)
	if err != nil {
		return nil, err
	}
	m["core.director_ns_per_step"] = searchNs - orderNs - raceNs
	m["search.frontier_ns_per_op"] = frontierNs()
	m["bench.trace_overhead_frac"] = traceOverhead(samples, w.period())
	return m, nil
}

// heapAllocs reads the process's cumulative heap allocation count
// without stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// repsFor is how many times a probe repeats a run of the given length:
// enough that each input's repetitions cover ~50k steps, since the
// diagnose workloads' production runs are a few hundred steps long and
// their differences would otherwise be lost in noise. Each timing is the
// median over the repetitions.
func repsFor(steps uint64) int {
	return min(25, max(4, int(50_000/max(steps, 1))))
}

// recordLedger prices the record path per input: the unrecorded run
// (sched), a classic recording (sketch), its encode and decode (trace),
// an epoch-ring recording of the same seeds (core epoch ring, vsys
// snapshot and digest), and a recording with a metrics registry (obs).
func recordLedger(inputs []recordInput, m map[string]float64, tr *tracer) error {
	var (
		steps, handoffs, entries                float64
		allocs, runSteps                        uint64
		unrec, classic, enc, dec, ring, metered float64
		logBytes, ringBytes, cpBytes            int
		overhead                                float64
		snapNs, digestNs                        []float64
		buf                                     bytes.Buffer
	)
	for _, in := range inputs {
		plain := in.opts
		plain.EpochRing = nil
		ringed := in.opts
		ringed.EpochRing = &alwaysOnRing
		withMetrics := plain

		first, _ := runUnrecorded(in.prog, in.opts)
		var u, c, e, d, r, mt, sn, dg []float64
		var rec, ringRec *core.Recording
		var err error
		// The runs rotate, so no one of them always follows another's
		// garbage.
		runs := []func(){
			func() {
				var res *sched.Result
				var world *vsys.World
				a0 := heapAllocs()
				u = append(u, float64(tr.time("sched.Run", func() { res, world = runUnrecorded(in.prog, in.opts) })))
				allocs += heapAllocs() - a0
				runSteps += res.Steps
				sn = append(sn, float64(tr.time("World.Snapshot", func() { world.Snapshot() })))
				dg = append(dg, float64(tr.time("World.Digest", func() { world.Digest() })))
			},
			func() {
				c = append(c, float64(tr.time("core.Record", func() { rec = core.Record(in.prog, plain) })))
				buf.Reset()
				e = append(e, float64(tr.time("Recording.Write", func() { err = rec.Write(&buf) })))
				if err == nil {
					d = append(d, float64(tr.time("core.ReadRecording", func() {
						_, err = core.ReadRecording(bytes.NewReader(buf.Bytes()), plain)
					})))
				}
			},
			func() {
				r = append(r, float64(tr.time("core.Record", func() { ringRec = core.Record(in.prog, ringed) })))
			},
			func() {
				withMetrics.Metrics = obs.NewRegistry()
				mt = append(mt, float64(tr.time("core.Record", func() { core.Record(in.prog, withMetrics) })))
			},
		}
		for k := 0; k < repsFor(first.Steps); k++ {
			for j := range runs {
				runs[(j+k)%len(runs)]()
				if err != nil {
					return gatef("%s: recording does not round-trip: %v", in.prog.Name, err)
				}
			}
		}
		steps += float64(first.Steps)
		handoffs += float64(first.Handoffs)
		entries += float64(rec.Sketch.Len())
		overhead += rec.Result.Overhead()
		logBytes += buf.Len()
		unrec += median(u)
		classic += median(c)
		enc += median(e)
		dec += median(d)
		ring += median(r)
		metered += median(mt)
		snapNs = append(snapNs, median(sn))
		digestNs = append(digestNs, median(dg))

		buf.Reset()
		if err := ringRec.Write(&buf); err != nil {
			return fmt.Errorf("%s: write ring recording: %w", in.prog.Name, err)
		}
		ringBytes += buf.Len()
		for _, cp := range ringRec.Epochs.Checkpoints {
			cpBytes += len(cp.World)
		}
	}
	m["sched.ns_per_step"] = ratio(unrec, steps)
	m["sched.allocs_per_step"] = ratio(float64(allocs), float64(runSteps))
	m["sched.handoffs_per_step"] = ratio(handoffs, steps)
	m["sketch.ns_per_entry"] = ratio(classic-unrec, entries)
	m["sketch.entries_per_step"] = ratio(entries, steps)
	m["sketch.modelled_overhead"] = ratio(overhead, float64(len(inputs)))
	m["trace.encode_ns_per_entry"] = ratio(enc, entries)
	m["trace.decode_ns_per_entry"] = ratio(dec, entries)
	m["trace.bytes_per_entry"] = ratio(float64(logBytes), entries)
	m["epoch.ns_per_step"] = ratio(ring-classic, steps)
	m["epoch.checkpoint_bytes_frac"] = ratio(float64(cpBytes), float64(ringBytes))
	m["vsys.snapshot_ns"] = median(snapNs)
	m["vsys.digest_ns"] = median(digestNs)
	m["obs.record_metrics_on_ratio"] = ratio(metered, classic)
	return nil
}

// substrateLedger times single-thread micro-programs of n substrate
// operations — Cell stores, Mutex lock/unlock pairs, World clock reads —
// and subtracts the per-step cost of a bare-Yield program, leaving what
// each substrate operation adds over its scheduling point. The programs
// run in rotation, seven rounds, so drift in host speed touches each
// alike; each keeps its median.
func substrateLedger(n int, m map[string]float64) {
	progs := []func(t *sched.Thread){
		func(t *sched.Thread) {
			for i := 0; i < n; i++ {
				t.Yield()
			}
		},
		func(t *sched.Thread) {
			c := mem.NewCell("bench.cell", 0)
			for i := 0; i < n; i++ {
				c.Store(t, uint64(i))
			}
		},
		func(t *sched.Thread) {
			mu := ssync.NewMutex("bench.mutex")
			for i := 0; i < n; i++ {
				mu.Lock(t)
				mu.Unlock(t)
			}
		},
		func(t *sched.Thread) {
			w := vsys.NewWorld(1)
			for i := 0; i < n; i++ {
				w.Now(t)
			}
		},
	}
	walls := make([][]float64, len(progs))
	steps := make([]float64, len(progs))
	for r := 0; r < 7; r++ {
		for i, body := range progs {
			start := time.Now()
			res := sched.Run(body, sched.Config{Strategy: sched.Lowest{}})
			walls[i] = append(walls[i], float64(time.Since(start)))
			steps[i] = float64(res.Steps)
		}
	}
	perStep := median(walls[0]) / steps[0]
	net := func(i int) float64 { return (median(walls[i]) - perStep*steps[i]) / float64(n) }
	m["mem.ns_per_op"] = net(1)
	m["ssync.ns_per_op"] = net(2)
	m["vsys.ns_per_op"] = net(3)
}

// evenly returns up to n indices spread evenly over [0, size): the
// diagnose pools are ordered bug by bug, so a prefix would price one bug.
func evenly(size, n int) []int {
	n = min(n, size)
	out := make([]int, n)
	for k := range out {
		out[k] = k * size / n
	}
	return out
}

// distinct returns up to n reproduced searches of distinct recordings,
// spread evenly over those the run made.
func distinct(samples []sample, n int) []sample {
	seen := map[*diagInput]bool{}
	var all []sample
	for _, s := range samples {
		if s.order != nil && !seen[s.in] {
			seen[s.in] = true
			all = append(all, s)
		}
	}
	var out []sample
	for _, i := range evenly(len(all), n) {
		out = append(out, all[i])
	}
	return out
}

// deepest returns up to n distinct reproduced searches with the most
// attempts: the searches where the frontier, snapshots and workers have
// the most to do.
func deepest(samples []sample, n int) []sample {
	all := distinct(samples, len(samples))
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].attempts > all[j-1].attempts; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	return all[:min(n, len(all))]
}

// searchLedger derives the search-side layer costs. Counts come from
// every search the run made. Each captured order is re-run through the
// scheduler with and without a race detector, which prices the detector
// per event and the scheduler per step on runs shaped like the search's
// attempts; it returns both, so the director's cost can be taken as what
// remains of a search's time per step without them.
func searchLedger(orders, all []sample, m map[string]float64, tr *tracer) (orderNs, raceNs float64) {
	var attempts, diverged, searches int
	var steps, orderSteps uint64
	var orderWall time.Duration
	var orderMS []float64
	for _, s := range all {
		if s.in == nil {
			continue
		}
		searches++
		attempts += s.attempts
		diverged += s.diverged
		steps += s.steps
		if s.orderSteps > 0 {
			orderSteps += s.orderSteps
			orderWall += s.orderWall
			orderMS = append(orderMS, ms(s.orderWall))
		}
	}
	var plain, detected, raceSteps float64
	var pairs int
	for _, s := range orders {
		rr, err := core.ReadRecording(bytes.NewReader(s.in.data), s.in.opts)
		if err != nil {
			continue // the workload's round-trip gate already checked it
		}
		run := func(det *race.Detector) *sched.Result {
			w := vsys.NewWorld(s.in.opts.WorldSeed)
			w.StartReplay(rr.Inputs)
			cfg := sched.Config{Strategy: &sched.OrderStrategy{Order: s.order.Order}, MaxSteps: s.in.opts.MaxSteps}
			if det != nil {
				cfg.Observers = []sched.Observer{det}
			}
			return sched.Run(func(t *sched.Thread) {
				s.in.prog.Run(&appkit.Env{T: t, W: w, Scale: s.in.opts.Scale, Procs: s.in.opts.Processors})
			}, cfg)
		}
		var p, d []float64
		var det *race.Detector
		for k := 0; k < repsFor(s.orderSteps); k++ {
			p = append(p, float64(tr.time("sched.Run", func() { run(nil) })))
			det = race.NewDetector()
			d = append(d, float64(tr.time("sched.Run+race", func() { run(det) })))
		}
		plain += median(p)
		detected += median(d)
		raceSteps += float64(s.orderSteps)
		pairs += len(det.Pairs())
	}
	raceNs = ratio(detected-plain, raceSteps)
	m["race.ns_per_event"] = raceNs
	m["race.pairs_per_kstep"] = 1000 * ratio(float64(pairs), raceSteps)
	m["core.attempts_per_search"] = ratio(float64(attempts), float64(searches))
	m["core.steps_per_attempt"] = ratio(float64(steps), float64(attempts))
	m["core.diverged_frac"] = ratio(float64(diverged), float64(attempts))
	m["core.reproduce_ns_per_step"] = ratio(float64(orderWall), float64(orderSteps))
	d := summarize(orderMS)
	m["core.order_replay_ms_p50"] = d.P50
	m["core.order_replay_ms_p90"] = d.P90
	return ratio(plain, raceSteps), raceNs
}

// ablationLedger re-runs the deepest searches at Workers 1 with prefix
// snapshots off and on, at Workers 2, and with a metrics registry at
// both worker counts. The registry's scheduler step counter includes
// speculative attempts the canonical commit discards, which
// ReplayStats.Steps does not. Short searches are repeated (repsFor) with
// the variants in rotation, and each variant keeps its median. It
// returns the Workers 1 search's wall time per step, free of the
// parallelism a Workers 2 search's has.
func ablationLedger(deep []sample, m map[string]float64, tr *tracer) (float64, error) {
	const (
		w1 = iota
		snap
		w2
		w1Metered
		w2Metered
		nVariants
	)
	var wall [nVariants]float64
	var executed [nVariants]float64
	var w1Steps uint64
	var snapBytes int64
	var hits, misses, evicted int
	var ffSteps, snapSteps uint64
	for _, s := range deep {
		rr, err := core.ReadRecording(bytes.NewReader(s.in.data), s.in.opts)
		if err != nil {
			return 0, gatef("%s: recording does not decode: %v", s.in.bug, err)
		}
		var opts [nVariants]core.ReplayOptions
		for v := range opts {
			opts[v] = core.ReplayOptions{Feedback: true, Workers: 1, Oracle: core.MatchBugID(s.in.bug)}
		}
		opts[snap].PrefixSnapshots = true
		opts[w2].Workers = 2
		opts[w2Metered].Workers = 2
		var walls, counts [nVariants][]float64
		var res [nVariants]*core.ReplayResult
		for k := 0; k < max(1, repsFor(s.steps)/3); k++ {
			for j := 0; j < nVariants; j++ {
				v := (j + k) % nVariants
				o := opts[v]
				if v == w1Metered || v == w2Metered {
					o.Metrics = obs.NewRegistry()
				}
				walls[v] = append(walls[v], float64(tr.time("core.Replay", func() { res[v] = core.Replay(s.in.prog, rr, o) })))
				if o.Metrics != nil {
					counts[v] = append(counts[v], float64(o.Metrics.Counter("sched_steps_total").Value()))
				}
			}
		}
		if res[w1].Reproduced != res[w2].Reproduced || res[w1].Attempts != res[w2].Attempts {
			return 0, gatef("%s seed %d: Workers 1 reproduced=%v in %d attempts, Workers 2 reproduced=%v in %d",
				s.in.bug, s.in.opts.ScheduleSeed, res[w1].Reproduced, res[w1].Attempts, res[w2].Reproduced, res[w2].Attempts)
		}
		for v := range wall {
			wall[v] += median(walls[v])
			if counts[v] != nil {
				executed[v] += median(counts[v])
			}
		}
		w1Steps += res[w1].Stats.Steps
		st := res[snap].Stats
		snapBytes += st.SnapshotBytes
		hits += st.SnapshotHits
		misses += st.SnapshotMisses
		evicted += st.SnapshotEvicted
		ffSteps += st.FastForwardSteps
		snapSteps += st.Steps
	}
	n := float64(len(deep))
	m["search.snapshot_wall_ratio"] = ratio(wall[snap], wall[w1])
	m["search.snapshot_mb"] = ratio(float64(snapBytes)/(1<<20), n)
	m["search.snapshot_hit_frac"] = ratio(float64(hits), float64(hits+misses))
	m["search.snapshot_evicted"] = ratio(float64(evicted), n)
	m["search.fastforward_frac"] = ratio(float64(ffSteps), float64(snapSteps))
	m["exec.worker_speedup"] = ratio(wall[w1], wall[w2])
	m["exec.extra_steps_frac"] = ratio(executed[w2Metered], executed[w1Metered]) - 1
	m["obs.replay_metrics_on_ratio"] = ratio(wall[w1Metered], wall[w1])
	return ratio(wall[w1], float64(w1Steps)), nil
}

// frontierNs times the search frontier in the shape a search uses it:
// bursts of pushes at mixed depths, each followed by as many pops. It
// returns ns per push+pop, the median of five rounds.
func frontierNs() float64 {
	const rounds, burst = 2000, 32
	var per []float64
	for r := 0; r < 5; r++ {
		f := search.NewFrontier[trace.TID](1)
		start := time.Now()
		for i := 0; i < rounds; i++ {
			for j := 0; j < burst; j++ {
				f.Push(trace.TID(j), (i*7+j*13)%64)
			}
			for j := 0; j < burst; j++ {
				f.Pop(0)
			}
		}
		per = append(per, float64(time.Since(start))/(rounds*burst))
	}
	return median(per)
}

// traceOverhead compares the traced run's passes that kept spans with
// those that did not. A traced run alternates the two pass by pass (see
// tracedPass), so each pair of passes saw the same inputs once each.
func traceOverhead(samples []sample, period int) float64 {
	var on, off time.Duration
	for _, s := range samples[:len(samples)/(2*period)*2*period] {
		if s.traced {
			on += s.opWall
		} else {
			off += s.opWall
		}
	}
	return ratio(float64(on), float64(off)) - 1
}
