GO ?= go

.PHONY: ci build vet portable test race stress fmt-check bench-e2e bench-e2e-test fuzz chaos mpq-smoke repro-tiny loc

# ci is the gate GitHub Actions runs: formatting, build, vet, race tests and
# the repeated concurrency tests.
ci: fmt-check build vet portable race stress

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) -C benchmark vet ./...

# portable cross-builds for a host without the amd64 assembly and vets the
# package that carries it, so the plain-Go INT8 kernel body — the only one
# such a host runs — cannot stop compiling unnoticed.
portable:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/quant/

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# stress repeats the tests whose subject is an interleaving — batch formation,
# the dispatch lanes, the breaker claim an expired batch hands back,
# /statz, /metrics and /healthz scraped under a faulted burst and the
# goroutine settle after a batch stalled past the watchdog in
# internal/serve, the probe claim a dead request hands back, a rolling
# restart under traffic and one held across Shutdown (goroutines settled
# after Shutdown) in internal/cluster, Execute racing Cost on every kind in
# internal/backend, the working-set and goroutine settle test in
# internal/study — under the race detector, many times in one
# process, where a once-in-fifty ordering shows up. (The lane tests inject
# faults, which adds to the process-wide fault counters; the chaos tests
# assert deltas of those, so neither repetition nor test order can break
# them.) CI runs this as a blocking step after race.
STRESS_SERVE = ^Test(LoneRequest|BusySlotKeepsBatchOpen|WindowCatchesThePair|ShutdownDuringFormationDrains|ContextDiesDuringFormation|LanesConservedOnEveryExitPath|BatchOfThreeOwnsTheRunner|ExpiredBatchReleasesOnlyItsOwnClaim|ScrapeUnderFaultedLoad|ChaosStalledExecuteSettles)
stress:
	$(GO) test -race -count=20 -run '$(STRESS_SERVE)' ./internal/serve/
	$(GO) test -race -count=20 -run '^Test(DeadLegReleasesOnlyItsOwnProbe|RollingRestartRoutesAround|ShutdownOwnsAStalledRestart)$$' ./internal/cluster/
	$(GO) test -race -count=20 -run '^TestExecuteRacesCost$$' ./internal/backend/
	$(GO) test -race -count=50 -run '^TestWorkingSetReleasedAndGoroutinesSettle$$' ./internal/study/

# bench-e2e runs the repository's benchmark (BENCHMARK.json, benchmark/):
# every workload at seed 1, untraced then traced, one JSON line each. It
# builds into the gitignored .bench_build/. bench-e2e-test runs that nested
# module's own tests, which the root `go test ./...` cannot see (≈5 s; they
# start the real binaries). CI runs the latter as a blocking step.
bench-e2e:
	bash benchmark/run.sh --seed 1

bench-e2e-test:
	$(GO) -C benchmark test ./...

# mpq-smoke runs the seeded mixed-precision search end to end (train →
# sensitivity → greedy → frontier) at tiny geometry; it finishes well under
# a minute and fails unless the frontier is well-formed (>= 4 variants with
# both anchors). CI runs this as a blocking step.
mpq-smoke:
	$(GO) run ./cmd/seneca-mpq -smoke

# repro-tiny regenerates every table, figure and ablation at tiny scale
# (≈2 min on two cores) and diffs stdout byte for byte against
# results/tiny_run.txt, less the wall-clock `train time` row. A change that
# moves a reported number either is a bug or rewrites the golden in the same
# commit, with the recipe below, and says why in CHANGES.md. It builds into
# the gitignored .repro/. CI runs this as a blocking step.
repro-tiny:
	$(GO) build -o .repro/seneca-bench ./cmd/seneca-bench
	./.repro/seneca-bench -scale tiny > .repro/tiny_run.txt
	grep -v '^train time' .repro/tiny_run.txt | diff -u results/tiny_run.txt -

# chaos runs the fault-injection resilience tests under the race detector:
# runners killed and stalled mid-load — and, at the fleet tier, whole nodes
# ejected mid-burst — must never produce a wrong or lost response (see
# README "Resilience & fault injection").
chaos:
	$(GO) test -race -count=1 -run Chaos ./internal/backend/ ./internal/serve/ ./internal/study/ ./internal/cluster/

# fuzz exercises the binary-format parsers (NIfTI, the xmodel and the
# training checkpoint), the /v1/segment front door's header checks and body
# decoding, its one-pass JSON decode against encoding/json, the INT8 drivers
# (through cell planes of widened geometry, under every kernel body the host
# can run), the INT4 layers (the same drivers, then a 4-bit clamp) and the
# FP32-fallback kernels against their oracles, the element-wise passes
# (argmax, max-pool, input quantisation) under every kernel body the host can
# run against their plain loops, the percentile selection
# against the sort it replaced, the backend pool and fault spec grammars, the
# study store's job-record loader and the largest-component filter against
# the flood fill it replaced, beyond the committed corpora.
fuzz:
	$(GO) test ./internal/nifti/ -run '^$$' -fuzz FuzzRead$$ -fuzztime 30s
	$(GO) test ./internal/xmodel/ -run '^$$' -fuzz FuzzReadProgram -fuzztime 30s
	$(GO) test ./internal/unet/ -run '^$$' -fuzz FuzzLoad -fuzztime 30s
	$(GO) test ./internal/quant/ -run '^$$' -fuzz FuzzConvVsReference -fuzztime 30s
	$(GO) test ./internal/quant/ -run '^$$' -fuzz FuzzDconvVsReference -fuzztime 30s
	$(GO) test ./internal/quant/ -run '^$$' -fuzz FuzzIntRefVsOracle -fuzztime 30s
	$(GO) test ./internal/quant/ -run '^$$' -fuzz FuzzCellPassesVsPortable -fuzztime 30s
	$(GO) test ./internal/imaging/ -run '^$$' -fuzz FuzzSaturateVsSort -fuzztime 30s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzDecodeSegmentRequest -fuzztime 30s
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzDecodeJSONBody -fuzztime 30s
	$(GO) test ./internal/study/ -run '^$$' -fuzz FuzzOpenStore -fuzztime 30s
	$(GO) test ./internal/study/ -run '^$$' -fuzz FuzzLargestComponents -fuzztime 30s
	$(GO) test ./internal/backend/ -run '^$$' -fuzz FuzzParseSpec -fuzztime 30s
	$(GO) test ./internal/fault/ -run '^$$' -fuzz FuzzApplySpec -fuzztime 30s

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# loc prints every package directory's Go non-test line count, the figure
# ROADMAP ground rule (iv) states simplicity targets in: a directory's own
# tracked .go files, not its subdirectories'. Paste the before/after rows of
# every package a change touches, counted on its final tree.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | awk '{ d = $$0; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; \
		while ((getline line < $$0) > 0) n[d]++; close($$0) } END { for (d in n) printf "%7d  %s\n", n[d], d }' | sort -k2
