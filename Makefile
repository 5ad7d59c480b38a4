# Standard-library-only Go module; these targets just bundle the
# invocations CI and contributors run by hand.

GO ?= go
FUZZTIME ?= 30s

.PHONY: check build vet lint test bench stress scenarios fuzz-short docs-drift experiments-drift

## check: the full gate — build everything, lint (gofmt + vet), verify
## the metric docs and the experiment tables are in sync, test under -race (including the
## production-schedule and search-trajectory goldens in internal/core
## and the concurrent-recording gate TestRecordConcurrentRaceClean),
## stress the search engine, run the failure-injection matrix and
## generator sweep, give every fuzz target a short budget (which
## includes the scenario-generator round-tripper FuzzScenarioGen), and
## vet and smoke-test the benchmark module in bench/ — it builds
## against internal/..., so an internal API change that breaks it
## fails here.
check: build lint docs-drift experiments-drift stress scenarios fuzz-short
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## lint: formatting and static checks — fail if any file needs gofmt,
## then go vet everything.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

test:
	$(GO) test ./...

## stress: the concurrency gate — the canonical-commit worker pool
## itself (exec: dispatch, park, drain-on-cancel), the replay search
## (core: concurrent Workers 8 searches) and the experiment cell pool
## (harness) twice under -race, so the dedup/commit/snapshot/dispatch
## paths get different goroutine schedules on each pass.
stress:
	$(GO) test -race -count=2 ./internal/exec/...
	$(GO) test -race -count=2 ./internal/core/...
	$(GO) test -race -count=2 -run 'TestPool|TestJobs|TestMetricsDeterministic' ./internal/harness/...
	$(GO) test -race -count=2 -run 'TestProp|TestRunCancellation|TestRunLeavesNoGoroutine' ./internal/sched/...

## scenarios: the failure-injection matrix (every app x failure class
## driven to its declared outcome and replayed to reproduction) plus a
## 100-seed generated-program sweep (buggy variants manifest and
## reproduce, patched variants stay clean). The in-test sweep slice and
## the exhaustive ground-truth prover run under go test; the wide sweep
## goes through the presgen CLI.
scenarios:
	$(GO) test -run 'TestMatrix|TestGen|TestInject' ./internal/scenario ./internal/sched
	$(GO) run ./cmd/presgen -sweep 100

## fuzz-short: run every native fuzz target in internal/trace,
## internal/scenario and internal/core for FUZZTIME each (the
## canonical-key collision-freedom targets, the decoder robustness
## targets, the generator round-tripper, and the decode-then-replay
## target FuzzReadRecordingReplay), seeded from testdata/fuzz corpora.
fuzz-short:
	@set -e; for pkg in ./internal/trace ./internal/scenario ./internal/core; do \
		for t in $$($(GO) test -list 'Fuzz.*' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$t ($(FUZZTIME)) [$$pkg]"; \
			$(GO) test -run NONE -fuzz "^$$t$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

## bench: the root package's per-experiment benches (E3, E7 and E8
## render E2's and E1's runs and have no bench of their own) and
## substrate micro-benchmarks, including the observability
## overhead pairs (SchedulingPointMetricsOff/On, ReplaySearchMetricsOff/On)
## that back OBSERVABILITY.md's disabled-means-free claim, the
## wire-format/harness-pool benches (BenchmarkEncodeSketch*,
## BenchmarkHarnessMatrix*), and the grant-loop pair
## (BenchmarkSchedulingPoint/Batch), the checkpoint digest's per-event
## fold (BenchmarkDigestEntry), with the zero-alloc gates of the grant
## loop, the replay director's pick, the race detector's memory access
## and the disabled injection hook (TestSchedGrantLoopAllocFree,
## TestDirectorPickAllocFree, TestDetectorAccessAllocFree,
## TestInjectDisabledAllocFree) and the allocation bounds of the
## feedback fold and the world digest (TestFoldAllocBound,
## TestWorldDigestAllocBound); then the
## end-to-end benchmark (bench/README.md) over all four workloads. To
## compare two trees, run bench with -out in each and diff the files
## with `cd bench && go run . -compare a.jsonl b.jsonl`.
bench:
	$(GO) test -run 'AllocFree$$|AllocBound$$' -bench . -benchtime 1s . ./internal/core ./internal/race ./internal/sched ./internal/trace ./internal/vsys
	bash bench/run.sh --workload all --seed 1 --seconds 15 --trace 0

## docs-drift: every pres_-prefixed metric name registered anywhere in
## the source (internal/obs wiring in sched/core/harness/cmd) must have
## a row in OBSERVABILITY.md and, in reverse, every metric-table row
## (`| \`pres_...`) in OBSERVABILITY.md must name a metric registered
## in non-test code; every CLI flag README.md mentions in inline code
## (`-flag`) must be registered by some tool in cmd/, by the shared
## observability flags in internal/obs, or by the benchmark in bench/;
## every JSONL trace field (a `json:"..."` tag on the event structs in
## internal/obs/sink.go, except the `event` discriminator) must be named
## in the first cell of a row of OBSERVABILITY.md's `record`, `attempt`
## or `summary` field tables and, in reverse, every name in those cells
## must be such a tag. A metric, flag or trace field documented without
## code (or vice versa) fails the gate. FLAG_ALLOW lists README tokens that look like flags but are
## not ours (e.g. go test's -race).
FLAG_ALLOW = race bench benchtime
docs-drift:
	@set -e; \
	names=$$(grep -ohrE '"pres_[a-z_]+"' --include='*.go' --exclude='*_test.go' internal cmd | tr -d '"' | sort -u); \
	missing=0; \
	for n in $$names; do \
		if ! grep -q "$$n" OBSERVABILITY.md; then \
			echo "docs-drift: metric $$n is registered in code but missing from OBSERVABILITY.md"; missing=1; \
		fi; \
	done; \
	rows=$$(grep -oE '^\| `pres_[a-z_]+' OBSERVABILITY.md | sed 's/^| `//' | sort -u); \
	for r in $$rows; do \
		if ! echo "$$names" | grep -qx "$$r"; then \
			echo "docs-drift: metric $$r has a row in OBSERVABILITY.md but no non-test code registers it"; missing=1; \
		fi; \
	done; \
	flags=$$(grep -ohE '[`]-[a-z][a-z0-9-]*' README.md | sed 's/^..//' | sort -u); \
	for f in $$flags; do \
		case " $(FLAG_ALLOW) " in *" $$f "*) continue;; esac; \
		if ! grep -qrE "\"$$f\"" --include='*.go' cmd bench internal/obs; then \
			echo "docs-drift: flag -$$f is documented in README.md but no tool in cmd/ or bench/ (or the shared obs flags) registers it"; missing=1; \
		fi; \
	done; \
	tags=$$(grep -oE 'json:"[a-z_]+' internal/obs/sink.go | sed 's/^json:"//' | grep -vx event | sort -u); \
	fields=$$(awk '/^\*\*`(record|attempt|summary)`\*\*/ { tbl = 1; rows = 0; next } \
		tbl && /^\|/ { rows = 1; split($$0, cell, "|"); print cell[2]; next } \
		tbl && rows { tbl = 0 }' OBSERVABILITY.md | grep -oE '`[a-z_]+`' | tr -d '`' | sort -u); \
	for g in $$tags; do \
		if ! echo "$$fields" | grep -qx "$$g"; then \
			echo "docs-drift: trace field $$g is emitted by internal/obs/sink.go but has no row in OBSERVABILITY.md's trace field tables"; missing=1; \
		fi; \
	done; \
	for g in $$fields; do \
		if ! echo "$$tags" | grep -qx "$$g"; then \
			echo "docs-drift: trace field $$g has a row in OBSERVABILITY.md but no json tag in internal/obs/sink.go"; missing=1; \
		fi; \
	done; \
	if [ $$missing -ne 0 ]; then exit 1; fi; \
	echo "docs-drift: $$(echo "$$names" | wc -l) pres_ metrics, $$(echo "$$rows" | wc -l) OBSERVABILITY.md rows, $$(echo "$$flags" | wc -l) README flags and $$(echo "$$tags" | wc -l) trace fields all in sync"

## experiments-drift: every experiment table in EXPERIMENTS.md — a
## fenced block whose first line is presbench's `== E…` header — must
## match `presbench -exp all` cell for cell, and every experiment
## presbench prints must have its block. Runs of spaces compare equal;
## only the `(E… in …)` timing lines are wall clock and are ignored.
EXP_NORM = /^\(E[0-9]+ in .*\)$$/ || NF == 0 { next } \
	{ $$1 = $$1; print }
experiments-drift:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/presbench -exp all | awk '$(EXP_NORM)' > "$$tmp/got"; \
	awk '/^```/ { inb = !inb; first = inb; next } \
		inb && first { first = 0; keep = /^== E/ } \
		inb && keep' EXPERIMENTS.md | awk '$(EXP_NORM)' > "$$tmp/doc"; \
	if ! diff -u "$$tmp/doc" "$$tmp/got" > "$$tmp/diff"; then \
		echo "experiments-drift: EXPERIMENTS.md (-) differs from presbench -exp all (+):"; \
		cat "$$tmp/diff"; exit 1; \
	fi; \
	echo "experiments-drift: $$(grep -c '^== E' "$$tmp/got") experiment tables in EXPERIMENTS.md match presbench -exp all"
