# Development targets for the Doppelgänger reproduction.
#
# `race` runs the whole module under the race detector and additionally
# exercises the sweep engine and workloads at GOMAXPROCS 1 and 4, since the
# parallel experiment engine must be correct at any worker count.
# `faults-smoke` proves the fault-injection layer deterministic under the
# race detector (including the cache array's pinned fault sites and victim
# order), `quality-smoke` does the same for the quality guard (breaker
# property test plus sweep determinism), and `test-interrupt` exercises the
# SIGINT/checkpoint/resume path end to end (and the refusal to resume a
# checkpoint recorded under another scale, core count, seed or budget);
# all three are folded into `race`.
# `trace-smoke` proves the persistent trace cache end to end under the race
# detector (capture, replay, strict-replay rejection, persist-failure
# degradation, doppelsim's -savetrace/-replay over the same captures, and
# timesim's refusal of a trace with more cores than it models) and is
# folded into `race` alongside the other smokes.
# `chaos-smoke` runs the short-mode chaos soak (cmd/chaossoak) under the race
# detector — corruption/quarantine, SIGKILLed recorders, fault-injecting
# filesystem — and is folded into `race`; the full 50-round soak is
# `go run ./cmd/chaossoak -out BENCH_9.json`.
# `server-smoke` proves the sweep server's robustness layer under the race
# detector — memoized dispatch, shard failover, breaker quarantine, the
# chaos exactly-once/bit-identical proof, the output-only capture read's
# corruption heal, the trace-cache leak tests, the cell identity (pinned
# names, pinned content hashes, rate -0 as rate 0, the submit-path fuzz
# corpus), and the sweepd drain/resume end-to-end — and is folded into
# `race`.
# `batch-smoke` proves single-pass multi-config replay bit-identical to
# sequential replay under the race detector — the funcsim fan-out and its
# zero-alloc guard, the decoded-capture cache (LRU eviction under memory
# pressure included), the workloads-level differential, the sweep-engine
# batched-vs-sequential differentials, output-only error cells bypassing
# the decoded cache (and its load counters), the cell capture identities
# the planner and digest routing look captures up by, and the server's
# decoded-cache stats and digest routing — and is folded into `race`.
# `fuzz-smoke` gives each fuzz target a short budget (Go allows one -fuzz
# pattern per package invocation, hence one line per target).
# `bench-smoke` runs one iteration of each Evaluation benchmark (each fails
# when its table or figure cannot be built), and of the per-layer
# cache-array (BenchmarkLookup) and timing-model (BenchmarkRun) benchmarks,
# as a cheap liveness check, then vets and tests the perfbench module —
# a nested module that `./...` never reaches, so this is the one step that
# compiles it against the current APIs. It is folded into `race`. The
# benchmark itself is `bash perfbench/run.sh` (perfbench/README.md).
# `cover` reports per-package statement coverage and enforces the
# internal/trace floor (the decoder is security-sensitive: 85%) and the
# internal/server floor (the robustness layer: 80%).
# `check-run-patterns` guards the smoke targets' test selection: for every
# quoted `-run 'A|B|...'` and `-bench 'A|B|...'` in this Makefile it asks
# `go test -list` whether each alternative names at least one test (for
# -run) or benchmark (for -bench) in that line's packages, and fails naming
# any that match none, so a renamed test or benchmark cannot silently drop
# out of CI. It is folded into `race`. (`-run xxx` in bench-smoke is
# unquoted on purpose: it selects no tests.)
# `audit` runs go vet always, plus staticcheck and govulncheck when they are
# installed — missing tools skip with a note instead of failing, so the
# target works in hermetic containers.

GO      ?= go
FUZZTIME ?= 30s

.PHONY: build test race check-run-patterns faults-smoke quality-smoke trace-smoke chaos-smoke server-smoke batch-smoke test-interrupt fuzz-smoke bench-smoke cover vet audit

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race: check-run-patterns faults-smoke quality-smoke trace-smoke chaos-smoke server-smoke batch-smoke test-interrupt bench-smoke
	$(GO) test -race -timeout 20m ./...
	$(GO) test -race -timeout 30m -cpu 1,4 ./internal/sweep/... ./internal/workloads/... ./internal/timesim/...

check-run-patterns:
	@awk '$$1 == "$$(GO)" && $$2 == "test" { n = 0; pkgs = ""; \
		for (i = 3; i <= NF; i++) \
			if (($$i == "-run" || $$i == "-bench") && $$(i + 1) ~ /^\047/) { flag[++n] = $$i; pat[n] = $$(i + 1) } \
			else if ($$i == "." || $$i ~ /^\.\//) pkgs = pkgs " " $$i; \
		for (j = 1; j <= n; j++) { p = pat[j]; gsub(/\047/, "", p); gsub(/\$$\$$/, "$$", p); print flag[j], p pkgs } }' Makefile | \
	{ status=0; while read -r flag pat pkgs; do \
		want='^(Test|Example|Fuzz)'; if [ "$$flag" = -bench ]; then want='^Benchmark'; fi; \
		for alt in $$(echo "$$pat" | tr '|' ' '); do \
			if ! $(GO) test -list "$$alt" $$pkgs | grep -Eq "$$want"; then \
				echo "check-run-patterns: $$flag alternative '$$alt' matches nothing in $$pkgs"; status=1; \
			fi; \
		done; \
	done; exit $$status; }

bench-smoke:
	$(GO) test -run xxx -bench 'Table2$$|Fig2$$|Fig7$$|Fig8$$|Fig9$$|Fig10$$|Fig11$$|Fig12$$|Fig13$$|Fig14$$|Table3$$' -benchtime 1x .
	$(GO) test -run xxx -bench 'BenchmarkLookup$$' -benchtime 1x ./internal/cache/
	$(GO) test -run xxx -bench 'BenchmarkRun$$' -benchtime 1x ./internal/timesim/
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

faults-smoke:
	$(GO) test -race -cpu 1,4 -run 'TestFaultSweepDeterministic|TestFaultSeedChangesSites' ./internal/sweep/
	$(GO) test -race -run 'TestDeterministicSites|TestModels' ./internal/faults/
	$(GO) test -race -run 'TestVictimOrder|TestFaultSitesPinned' ./internal/cache/

quality-smoke:
	$(GO) test -race -cpu 1,4 -run 'TestQualitySweepDeterministic|TestQualityGuard' ./internal/sweep/
	$(GO) test -race -run 'TestBreakerProperty|TestBreakerDeterminism' ./internal/quality/

server-smoke:
	$(GO) test -race -run 'TestSubmitMemoizesAndMatchesSerial|TestKillShardFailsOver|TestBreakerQuarantinesShard|TestChaosExactlyOnceBitIdentical|TestDrainSnapshotsPending|TestHTTPEndpoints|TestOutputOnlyReadCorruptTraceSection|TestNegativeZeroRateOneCell|TestContentHashSeparatesConfigs' ./internal/server/
	$(GO) test -race -run 'TestTraceCacheConcurrentCancelNoLeak|TestTraceCacheForgottenErrorUnderConcurrency|TestCellKey|FuzzCellSubmit' ./internal/sweep/
	$(GO) test -run 'TestDrainResumeByteIdentical' ./cmd/sweepd/

batch-smoke:
	$(GO) test -race -run 'TestReplayBatch' ./internal/funcsim/
	$(GO) test -race -run 'TestDecodedDigestFields|TestDecodedCache' ./internal/trace/
	$(GO) test -race -run 'TestReplayBatchMatchesSequentialRuns' ./internal/workloads/
	$(GO) test -race -cpu 1,4 -run 'TestBatchedQualityMatchesSequential|TestBatchedErrorCellsMatchSequential|TestBaselineScoreFromCaptureWithoutCache|TestCellKey' ./internal/sweep/
	$(GO) test -race -run 'TestServerDecodedCacheAndDigestRouting|TestOutputOnlyReadCorruptTraceSection' ./internal/server/
	$(GO) test -race -run 'TestEvaluationMetricsCountCaptureLoads' ./

trace-smoke:
	$(GO) test -race -cpu 1,4 -run 'TestTraceSmoke|TestTraceReplayRequiresCapture|TestTracePersistFailureDegradesLive' ./internal/sweep/
	$(GO) test -race -run 'TestCapture|TestCursor|TestWriteFile|TestOpenStore|TestQuarantineOneWayDoor|TestVerifyFileModes|TestReadErrorClassification' ./internal/trace/
	$(GO) test -race -run 'TestSaveTraceIsTraceDirCapture|TestReplayRejects' ./cmd/doppelsim/
	$(GO) test -race -run 'TestRunRejectsUnmodeledCores' ./internal/timesim/

chaos-smoke:
	$(GO) test -race -short -run 'TestChaosSoakShort' ./cmd/chaossoak/

test-interrupt:
	$(GO) test -run 'TestInterruptResume|TestResumeRefusesOtherIdentity' ./cmd/experiments/
	$(GO) test -run 'TestGangContextCancel|TestGangKernelPanic|TestGangNoGoroutineLeak' ./internal/funcsim/

fuzz-smoke:
	$(GO) test -fuzz=FuzzMapValue$$ -fuzztime=$(FUZZTIME) ./internal/approx
	$(GO) test -fuzz=FuzzSimilarityConsistency$$ -fuzztime=$(FUZZTIME) ./internal/approx
	$(GO) test -fuzz=FuzzRoundTrip$$ -fuzztime=$(FUZZTIME) ./internal/bdi
	$(GO) test -fuzz=FuzzDecompressRobustness$$ -fuzztime=$(FUZZTIME) ./internal/bdi
	$(GO) test -fuzz=FuzzDoppelgangerOps$$ -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -fuzz=FuzzTraceFileDecode$$ -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -fuzz=FuzzQuarantineExactlyOnce$$ -fuzztime=$(FUZZTIME) ./internal/workloads
	$(GO) test -fuzz=FuzzCheckpointParse$$ -fuzztime=$(FUZZTIME) ./internal/sweep
	$(GO) test -fuzz=FuzzCellSubmit$$ -fuzztime=$(FUZZTIME) ./internal/sweep

cover:
	$(GO) test -cover ./... | tee cover.out
	@awk '$$2 ~ /internal\/trace$$/ { for (i = 1; i <= NF; i++) if ($$i == "coverage:") pct = $$(i+1) } \
	END { sub(/%/, "", pct); \
	      if (pct == "") { print "cover: no coverage line for internal/trace"; exit 1 } \
	      if (pct + 0 < 85) { printf "cover: internal/trace coverage %s%% is below the 85%% floor\n", pct; exit 1 } \
	      printf "cover: internal/trace at %s%% (floor 85%%)\n", pct }' cover.out; \
	status=$$?; if [ $$status -ne 0 ]; then rm -f cover.out; exit $$status; fi
	@awk '$$2 ~ /internal\/server$$/ { for (i = 1; i <= NF; i++) if ($$i == "coverage:") pct = $$(i+1) } \
	END { sub(/%/, "", pct); \
	      if (pct == "") { print "cover: no coverage line for internal/server"; exit 1 } \
	      if (pct + 0 < 80) { printf "cover: internal/server coverage %s%% is below the 80%% floor\n", pct; exit 1 } \
	      printf "cover: internal/server at %s%% (floor 80%%)\n", pct }' cover.out; \
	status=$$?; rm -f cover.out; exit $$status

vet:
	$(GO) vet ./...

audit: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "audit: staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "audit: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi
