# Tier-1 verification for the fscoherence reproduction.
#
#   make ci      — the full tier-1 gate: formatting, vet, build, tests, the
#                  race detector over every package, the naive-vs-skip
#                  equivalence suite (skip must be byte-identical to the
#                  naive reference a no-op cycle hook selects),
#                  and a zero-alloc smoke run of the network hot path.
#   make check   — static gate only: gofmt -l must be clean, PROTOCOL.md's
#                  generated region must match internal/coherence/spec, the
#                  spec package must godoc cleanly, then go vet and the unit
#                  tests.
#   make specdocs — regenerate PROTOCOL.md §§2–4 from internal/coherence/spec
#                  (run after editing the protocol tables).
#   make test    — build + unit tests only (fast inner loop).
#   make race    — race-detector pass only.
#   make equiv   — naive-vs-skip equivalence tests only.
#   make bench   — run the Benchmark* suite (-benchmem, one iteration each)
#                  and capture the parsed results into BENCH_6.json. Includes
#                  the sampled 10^9-access mesh-64 cell (~1 min).
#   make benchdiff — compare BENCH_6.json against the previous snapshot
#                  (BENCH_5.json); fails on a >15% regression in any tracked
#                  deterministic metric (allocs/op, B/op, modelled results —
#                  wall-clock ns/op is excluded as CI noise). Part of make ci;
#                  skipped with a notice if BENCH_6.json has not been
#                  captured on this machine.
#   make samplecheck — the interval-sampling validation gate: sampled
#                  estimates must land within tolerance of full reference
#                  runs, and must be byte-identical across -j worker counts.
#   make ckptcheck — the crash-resilience gate: kill a run mid-window, resume
#                  from its checkpoint and demand byte-identical final
#                  counters on {flat, mesh} and sampled runs; corrupt /
#                  version-skewed / wrong-identity checkpoints must degrade to
#                  cold runs; campaign journals must resume; plus a real
#                  SIGKILL-mid-run smoke test under -race.
#   make sweep   — regenerate the paper's tables (cells fan out over -j workers).
#   make fuzzsmoke — CI-sized protocol fuzzing: a fixed 60-seed corpus across
#                  the three protocols under fault injection, plus the oracle
#                  selfcheck (seeded bugs must be caught and shrunk). ~30s.
#   make fuzz    — full fuzzing campaign (SEEDS=200 by default); not tier-1.
#   make loc     — count the non-test Go lines of the main module (fsbench/
#                  excluded), the size figure ROADMAP.md tracks.

GO ?= go
GOFMT ?= gofmt
SEEDS ?= 200

.PHONY: ci check fmt test race equiv allocsmoke samplecheck ckptcheck bench benchdiff sweep fuzz fuzzsmoke specdocs speccheck loc

ci: check race equiv allocsmoke samplecheck ckptcheck fuzzsmoke benchdiff

check: fmt speccheck test

# Rewrite the generated region of PROTOCOL.md (§§2–4) from the protocol
# tables in internal/coherence/spec.
specdocs:
	$(GO) run ./cmd/fsspec -w

# Fail if the committed PROTOCOL.md drifted from the spec tables, and smoke
# the spec package's godoc (a parse failure here breaks `go doc`).
speccheck:
	$(GO) run ./cmd/fsspec -check
	@$(GO) doc ./internal/coherence/spec >/dev/null

# gofmt -l prints unformatted files; any output fails the gate.
fmt:
	@out="$$($(GOFMT) -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

test:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Naive-vs-skip determinism: every workload x protocol under the skip policy
# and the naive reference (selected by a no-op cycle hook; no option selects
# it), the big-machine matrix, the machine shapes and attachments of
# TestEngineEquivalenceAttachments (OOO, L2, non-inclusive LLC, forensics,
# metrics, fault plans, sampled and checkpointed runs), golden-trace
# byte-equality, and the spec-table dispatch reproducing its pinned results
# across {naive,skip} x {flat,mesh} (engine_test.go, internal/sim).
equiv:
	$(GO) test -run 'TestEngine' -count=1 . ./internal/sim/

# The steady-state network round trip, the run loop, functional warming and
# the disabled forensics recorder must not allocate; the benchmark's
# allocs/op plus the four tests gate it.
allocsmoke:
	$(GO) test -run 'TestSendRecvDoesNotAllocate' -bench 'BenchmarkNetSendRecv' -benchmem -benchtime=1x -count=1 ./internal/network/
	$(GO) test -run 'TestSkipLoopDoesNotAllocate|TestWarmingAccessDoesNotAllocate' -count=1 ./internal/sim/
	$(GO) test -run 'TestForensicsDisabledDoesNotAllocate' -count=1 ./internal/forensics/

# Sampled-vs-full tolerance gate plus cross-worker determinism of the sampled
# estimates. EXPERIMENTS.md §"Sampled simulation".
samplecheck:
	$(GO) test -run 'TestSampledVsFull|TestSampledDeterministicAcrossWorkers' -count=1 .

# Crash/resume byte-identity, corruption fallback, campaign-journal resume
# (ckptcheck_test.go, journal_test.go, internal/checkpoint), then the
# SIGKILL-a-real-process smoke test under the race detector.
ckptcheck:
	$(GO) test -run 'TestCheckpoint|TestCadence|TestCorrupt|TestMissingResume|TestWrongIdentity|TestWarmState|TestJournal|TestLoadJournal' -count=1 .
	$(GO) test -count=1 ./internal/checkpoint/
	$(GO) test -race -run 'TestKillResumeSmoke|TestSupervised|TestBackoffDeterministic|TestPrimeMemo' -count=1 . ./internal/runner/

bench:
	$(GO) test -bench . -benchmem -benchtime=1x -run '^$$' ./... | $(GO) run ./cmd/benchjson -out BENCH_6.json

# Regression gate over the checked-in snapshots. BENCH_6.json is machine-
# dependent, so the diff only runs when a local capture exists.
benchdiff:
	@if [ -f BENCH_6.json ]; then \
		$(GO) run ./cmd/benchjson -diff BENCH_6.json -prev BENCH_5.json; \
	else \
		echo "benchdiff: BENCH_6.json not captured (run 'make bench' first); skipping"; \
	fi

sweep:
	$(GO) run ./cmd/fsexp -all

# Fixed corpus + oracle selfcheck: deterministic, so a failure here is a real
# regression, never flake. EXPERIMENTS.md §"Protocol fuzzing".
fuzzsmoke:
	$(GO) run ./cmd/fsfuzz -seeds 60
	$(GO) run ./cmd/fsfuzz -selfcheck

fuzz:
	$(GO) run ./cmd/fsfuzz -seeds $(SEEDS)

# Non-test Go lines of the main module; fsbench/ is a separate module.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './fsbench/*' ! -path './.*' -print0 | xargs -0 cat | wc -l
