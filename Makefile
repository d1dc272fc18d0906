# Development targets. `make ci` is what every PR must pass: vet,
# build, the full test suite under the race detector (the serving
# path is lock-free by design — races are correctness bugs here), and
# a one-iteration benchmark smoke run so the harness can't rot.

GO ?= go

.PHONY: build test race flake vet fmt-check bench-smoke bench bench-guard bench-harness metrics-lint chaos fuzz-smoke eval eval-smoke ci

# Where `make bench` writes its aggregated measurements.
BENCH_OUT ?= BENCH_pr10.json

# Where `make eval` writes the strategy A/B report.
EVAL_OUT ?= EVAL_pr7.json

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# benchmark/ is a module of its own, compiled against this one: vetting
# it here makes an API break that would fail the benchmark build fail the
# first CI step instead of the last.
vet:
	$(GO) vet ./...
	$(GO) vet -C benchmark ./...

# Fails when any file needs gofmt — keeps diffs mechanical-noise-free.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# The flight recorder's seqlock also runs alone, three times over:
# inside ./... the packages run in parallel, and that interleaving can
# hide a race in it.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=3 ./internal/slo/

# Order- and repetition-dependence check over the packages of the
# suggestion pipeline: 20 runs each, test order shuffled. A test that
# picks its input by ranging over a map, or leans on state an earlier
# test left in a pool or memo, fails here long before it flakes in CI.
flake:
	$(GO) test -count=20 -shuffle=on ./internal/core/ ./internal/bipartite/ ./internal/hittingtime/ ./internal/regularize/ ./internal/randomwalk/ ./internal/sparse/ ./internal/topicmodel/

# Every benchmark runs exactly once: catches harness bitrot (bad
# fixtures, panics, compile errors in bench-only code) without paying
# for a real measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Real measurement run over the serving hot path — kernel (sparse,
# randomwalk), stage (hittingtime) and end-to-end (facade/server)
# benchmarks, 5 repetitions each, aggregated into $(BENCH_OUT) by
# cmd/benchjson (min ns/op across runs, max B/op & allocs/op).
bench:
	@rm -f .bench.out
	$(GO) test -run '^$$' -bench 'SolveCG' -benchmem -count 5 ./internal/sparse/ | tee -a .bench.out
	$(GO) test -run '^$$' -bench 'HittingTime' -benchmem -count 5 ./internal/randomwalk/ | tee -a .bench.out
	$(GO) test -run '^$$' -bench 'HittingStage|NewWalker|SelectDiverse' -benchmem -count 5 ./internal/hittingtime/ | tee -a .bench.out
	$(GO) test -run '^$$' -bench 'SuggestDiversified|ServerSuggest' -benchmem -count 5 . | tee -a .bench.out
	$(GO) test -run '^$$' -bench 'RefreshBuild' -benchmem -count 5 ./internal/core/ | tee -a .bench.out
	$(GO) test -run '^$$' -bench 'ShedPath' -benchmem -count 5 ./internal/server/ | tee -a .bench.out
	$(GO) test -run '^$$' -bench 'SnapshotLoad' -benchmem -count 5 ./internal/snapwire/ | tee -a .bench.out
	$(GO) run ./cmd/benchjson -o $(BENCH_OUT) < .bench.out
	@rm -f .bench.out

# Allocation regression guards: the steady-state hitting-time sweep
# (pooled scratch, precomputed dangling mass) must stay at 0 allocs/op,
# and a steady-state delta snapshot build must stay allocation-bounded
# (proportional to the delta and merged rows — measured 55 allocs/op,
# guarded at 80 for headroom), enforced on every CI run. A cold
# suggestion-cache miss (carve + Eq. 15 system + walker + selection on
# pooled scratch — measured 99 allocs/op) is guarded at 150. The 8-lane
# tile sweep is held to 0 allocs/op like the single-lane one, and a
# 32-lane DoBatch solve group on a cached compact (measured 488
# allocs/op, ≈ 15 per lane) at that + 10 %.
bench-guard:
	$(GO) test -run '^$$' -bench 'HittingTimeSteadyState|HittingTimeTileSteadyState' -benchmem ./internal/randomwalk/ | tee .bench.guard.out | \
		$(GO) run ./cmd/benchjson -guard BenchmarkHittingTimeSteadyState -max-allocs 0
	$(GO) run ./cmd/benchjson -guard BenchmarkHittingTimeTileSteadyState -max-allocs 0 < .bench.guard.out
	$(GO) test -run '^$$' -bench 'DoBatch32/SameF0' -benchmem ./internal/core/ | \
		$(GO) run ./cmd/benchjson -guard BenchmarkDoBatch32/SameF0 -max-allocs 537
	$(GO) test -run '^$$' -bench 'DeltaBuildSteadyState' -benchmem ./internal/bipartite/ | \
		$(GO) run ./cmd/benchjson -guard BenchmarkDeltaBuildSteadyState -max-allocs 80
	$(GO) test -run '^$$' -bench 'ShedPath' -benchmem ./internal/server/ | \
		$(GO) run ./cmd/benchjson -guard BenchmarkShedPath -max-allocs 2
	$(GO) test -run '^$$' -bench 'FlightRecorderEmit' -benchmem ./internal/slo/ | \
		$(GO) run ./cmd/benchjson -guard BenchmarkFlightRecorderEmit -max-allocs 0
	$(GO) test -run '^$$' -bench 'HittingStageSeed' -benchmem ./internal/hittingtime/ | \
		$(GO) run ./cmd/benchjson -guard BenchmarkHittingStageSeed -max-allocs 64
	$(GO) test -run '^$$' -bench 'SolveCGMulti4$$|SolveCGMulti64$$' -benchmem ./internal/sparse/ | tee .bench.guard.out | \
		$(GO) run ./cmd/benchjson -guard BenchmarkSolveCGMulti4 -max-allocs 4
	$(GO) run ./cmd/benchjson -guard BenchmarkSolveCGMulti64 -max-allocs 4 < .bench.guard.out
	@rm -f .bench.guard.out
	$(GO) test -run '^$$' -bench 'SuggestDiversifiedArena' -benchmem . | \
		$(GO) run ./cmd/benchjson -guard BenchmarkSuggestDiversifiedArena -max-allocs 30
	$(GO) test -run '^$$' -bench 'ColdMiss' -benchmem . | \
		$(GO) run ./cmd/benchjson -guard BenchmarkColdMiss -max-allocs 150
	$(GO) test -run '^$$' -bench 'SnapshotLoadLarge' -benchmem ./internal/snapwire/ | \
		$(GO) run ./cmd/benchjson -guard BenchmarkSnapshotLoadLarge -max-allocs 48

# The serving benchmark as a gate (benchmark/ is a module of its own,
# so `go test ./...` does not reach it): its unit tests — which compile
# the harness against today's internal/ API and hold its stage replay
# to the engine — then a short traced tail_cold run, whose exit code
# enforces trace.ladder_gap ≤ 0.15, trace.overhead_ratio ≤ 1.05, zero
# failed operations and a result_digest that repeats across passes.
bench-harness:
	$(GO) test -C benchmark ./...
	bash benchmark/run.sh --workload tail_cold --seed 1 --seconds 2 --trace 1 >/dev/null

# Metric-name drift guard: every registered Prometheus family must be
# listed in metrics.txt and vice versa, plus both exposition formats
# must pass the strict in-repo linter. Regenerate the manifest with
#   UPDATE_METRICS_MANIFEST=1 $(GO) test ./internal/server -run TestMetricsManifest
metrics-lint:
	$(GO) test -count=1 -run 'TestMetricsManifest|TestMetricsExpositionConformance|TestLint' ./internal/server/ ./internal/obs/

# Chaos / overload suite under the race detector: floods past the
# concurrency cap, bounded-queue shedding, per-user/per-IP rate limits,
# breaker trip→half-open→close, degraded cache fallback, body cap,
# trailing-garbage rejection. Run it whenever the admission layer or
# server middleware changes.
chaos:
	$(GO) test -race -count=1 ./internal/admission/
	$(GO) test -race -count=1 -run 'Flood|Breaker|RateLimit|StatsAdmission|BodyCap|TrailingGarbage|BatchItemsShed|LearnAndRefreshGated' ./internal/server/

# 10-second fuzz smoke over the snapshot loader: random mutations of
# valid images (plus the corpus of hand-built corruptions) must always
# come back as clean errors — never a panic, hang or out-of-bounds
# read. The image is untrusted input on the POST /v1/snapshot path, so
# this runs on every CI pass, not just when someone remembers to fuzz.
fuzz-smoke:
	$(GO) test -run '^FuzzLoadSnapshot$$' -fuzz 'FuzzLoadSnapshot' -fuzztime 10s ./internal/snapwire/

# Offline strategy A/B report (cmd/evalab): every registered
# diversification strategy plus the paper's click-graph baselines,
# scored per scenario class (ambiguous / navigational / cold-start)
# with alpha-nDCG, subtopic recall and intra-list distance.
eval:
	$(GO) run ./cmd/evalab -scale paper -baselines -out $(EVAL_OUT)

# Small-scale eval run: proves the harness end to end (world build,
# strategy fan-out, pooled ideal, JSON emission) without paying for the
# paper-scale world. Part of `make ci`.
eval-smoke:
	$(GO) run ./cmd/evalab -scale small -baselines -max-queries 3 -out /tmp/EVAL_smoke.json

ci: vet fmt-check build race chaos bench-smoke bench-guard bench-harness metrics-lint fuzz-smoke eval-smoke
