GO ?= go

.PHONY: ci vet build test test-386 perfbench race race-pipeline fault-soak adapt-soak ingest-soak fuzz-smoke bench bench-gate bench-pair golden cover

# ci is the full gate: static checks, build, the test suite, the
# receiver front end's tests under GOARCH=386, the repository
# benchmark's own checks, a short fuzz smoke over every
# fuzz target, the race-enabled pass over the
# concurrent pipeline (the packages where races can actually live),
# the deterministic chaos soak, the adaptive-link chaos soak (the
# closed-loop controller must beat every surviving fixed operating
# point and regain the top rung on budget), a single-iteration pass
# over the ProcessFrame, Capture, RS failure-path and split-search
# benchmarks (so the telemetry-overhead path, the camera readout, the
# split search's RS reject path and its syndrome-domain search compile
# and run), and
# the one benchmark gate, bench-gate, which compares no timing and so
# passes on any host. Each soak test runs once. Budget: 441 s wall on a
# 2-vCPU VM; race-pipeline (144 s), the test suite (85 s) and
# fault-soak (79 s) dominate. test-386 adds about 6 s with a warm build
# cache. The full-suite race run stays available as `make race` but is
# too slow for the default gate.
ci: vet build test test-386 perfbench fuzz-smoke race-pipeline fault-soak adapt-soak ingest-soak bench bench-gate

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# test shuffles both test and subtest execution order so hidden
# inter-test state dependencies surface in CI instead of in a
# developer's unlucky local run. Reproduce a shuffle failure with
# `go test -shuffle=<seed printed in the failing log>`. It skips the
# three long soak tests that fault-soak and adapt-soak run on their
# own, so each runs once per `make ci`; plain `go test ./...` still
# runs every test.
SOAK_TESTS = ^(TestSoakHealthPerClass|TestAdaptSoakBeatsFixed|TestAdaptSoakDeterminism)$$
test:
	$(GO) test -shuffle=on -skip '$(SOAK_TESTS)' ./...

# test-386 runs the receiver front end's tests under GOARCH=386, where
# the row sum is the portable twelve-lane fold instead of the amd64
# SSE2 kernel: the row-sum tests pin both to the same bits, and the
# golden corpus, the differential harness and the two front-end fuzz
# targets' seeds must pass unchanged. About 6 s with a warm build
# cache (the first run also compiles the standard library for 386).
FRONT_END_TESTS = ^(TestSumPix12MatchesScalar|TestSumPix12Signs|TestExtractPlanesBitExact|TestGoldenCorpus|TestGoldenDifferential|FuzzStripSegment|FuzzFrontEndDifferential)$$
test-386:
	GOARCH=386 $(GO) test -count=1 -run '$(FRONT_END_TESTS)' ./internal/modem/

# perfbench vets and unit-tests the repository benchmark (its own Go
# module under perfbench/, which builds against this checkout), so an
# internal API change that breaks the benchmark fails here rather than
# in a benchmark run. -short skips its fleet smoke run (~12 s total).
perfbench:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test -short ./...

race:
	$(GO) test -race ./...

# race-pipeline runs the concurrency-heavy packages under the race
# detector: the worker-pool pipeline and the modem whose Analyze path
# the workers share. The root-package facade tests also pass -race but
# their multi-second end-to-end captures blow the ci budget; run
# `make race` for the exhaustive version.
race-pipeline:
	$(GO) test -race -count=1 ./internal/pipeline/ ./internal/modem/

# fault-soak runs the deterministic chaos soak: first the
# concurrency-focused subset under the race detector (a sustained
# blackout through the resync/recalibration machinery, and the
# pipeline-vs-serial decode-digest equivalence with goroutine-leak and
# heap checks), then the per-fault-class LinkHealth matrix without
# -race (every class must dip the health score and recover within the
# 60-frame budget; on failure it prints the per-class health table).
# The full per-class recovery matrix also runs (without -race) as part
# of the ordinary test suite.
fault-soak:
	$(GO) test -race -count=1 -run 'TestSoakResyncPath|TestSoakPipelineMatchesSerial|TestSoakNoFalseAlarms' ./internal/fault/...
	$(GO) test -count=1 -run TestSoakHealthPerClass ./internal/fault/soak/

# adapt-soak runs the adaptive-link chaos gate (internal/fault/soak
# adapt_test.go): for every fault class in the chaos table, the
# closed-loop link-adaptation session must deliver at least 2x the
# goodput of the best fixed configuration that survived the burst,
# regain the top ladder rung within the 90-frame recovery budget, and
# reproduce byte-identically under a fixed seed. The long test ride is
# real simulation time (each class runs one adaptive plus three
# fixed-rung 14-second sessions).
adapt-soak:
	$(GO) test -count=1 -run TestAdaptSoak -v ./internal/fault/soak/

# ingest-soak runs the multi-tenant ingest service's concurrency gate
# under the race detector: the reconnecting-fleet soak (every session's
# wire block stream must digest-equal a serial re-decode of exactly the
# admitted frames, second-round sessions must ride the calibration
# cache, and Close must leave no goroutines behind), the shedding
# paths, and the loadgen fleet harness with full verification.
ingest-soak:
	$(GO) test -race -count=1 -run 'TestIngestSoak|TestServer|TestLoadgen' ./internal/ingest/...

# fuzz-smoke gives each fuzz target a few seconds of coverage-guided
# input generation on top of the checked-in seed corpus. Panics found
# here reproduce with `go test -run=Fuzz<Name>/<file>`.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzDeframe$$' -fuzztime=5s ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzRSDecode$$' -fuzztime=5s ./internal/rs/
	$(GO) test -run='^$$' -fuzz='^FuzzStripSegment$$' -fuzztime=5s ./internal/modem/
	$(GO) test -run='^$$' -fuzz='^FuzzFrontEndDifferential$$' -fuzztime=5s ./internal/modem/
	$(GO) test -run='^$$' -fuzz='^FuzzCalibrationTLV$$' -fuzztime=5s ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzCalSnapshot$$' -fuzztime=5s ./internal/packet/
	$(GO) test -run='^$$' -fuzz='^FuzzWireFrame$$' -fuzztime=5s ./internal/ingest/

# golden regenerates the committed golden-frame digests under
# internal/modem/testdata/golden/ from the scenario definitions in
# golden_test.go, and the seed-fixed values the bench gate pins in
# internal/experiments/testdata/seedfixed.jsonl. Run after an
# intentional decode-behavior change, then review the diff like any
# other code change — an unexpected digest flip is a decode
# regression, not noise. Every seed-fixed entry it changes comes back
# with a blank accepted note, which fails bench-gate until it says
# which change moved the values and why.
golden:
	$(GO) test -run='^TestGoldenCorpus$$' -count=1 ./internal/modem/ -args -update
	$(GO) test -run='^TestSeedFixedValues$$' -count=1 ./internal/experiments/ -args -update

# cover enforces a statement-coverage floor on the packages the
# decode hot path lives in: the modem, the colorspace kernels, the
# constellation designs, the online equalizer the classify path
# now runs through, and the RS decoder with the GF(2^8) tables it
# reads. The floor is deliberately below the current numbers (modem
# 94.6%, colorspace 97.7% at introduction; rs 98.5%, gf256 98.6% when
# they joined) — it exists to catch a future fast-path branch (new
# kernel, new LUT, new correction stage) landing without tests, not
# to chase a percentage.
cover:
	@$(GO) test -count=1 -coverprofile=/tmp/colorbars-cover.out ./internal/modem/ ./internal/colorspace/ ./internal/equalize/ ./internal/csk/ ./internal/rs/ ./internal/gf256/
	@$(GO) tool cover -func=/tmp/colorbars-cover.out | tail -1
	@total=$$($(GO) tool cover -func=/tmp/colorbars-cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	floor=90; \
	ok=$$(awk -v t=$$total -v f=$$floor 'BEGIN{print (t>=f)?1:0}'); \
	if [ "$$ok" != 1 ]; then \
		echo "coverage $$total% below floor $$floor% (modem+colorspace+equalize+csk+rs+gf256)"; exit 1; \
	fi

# bench runs the decode (ProcessFrame), camera (Capture), RS
# failure-path (DecodeWrongErasures: the wrong loss-split guess the
# receiver's split search makes on almost every attempt) and split
# search (SplitSearch: decodeData on a chaos capture's packet that
# resolves after 691 splits, on one that exhausts the budget, and on a
# single-gap packet whose moved-gap guesses are all judged and fail)
# benchmarks once each, so all four compile and run in CI.
bench:
	$(GO) test -run=- -bench='^(BenchmarkProcessFrame|BenchmarkCapture|BenchmarkDecodeWrongErasures|BenchmarkSplitSearch)$$' -benchtime=1x ./...

# bench-gate is the one benchmark gate. Everything the seed fixes —
# SER and its sample size, goodput, block and RS-attempt counts at
# three Nexus 5 decode points, the adaptive ladders' goodput under
# chaos, the dense ladder's equalizer confidence and the chaos soak's
# decode digests, on seeds 1–3 — must equal
# internal/experiments/testdata/seedfixed.jsonl exactly, so it passes
# on any host. Then the paired timing comparator's self-test runs on
# saved benchmark result lines (cmd/colorbars-benchpair/testdata).
# Host-dependent timing is never compared against a committed number:
# `make bench-pair` measures it on one host.
bench-gate:
	$(GO) test -count=1 -run='^TestSeedFixed' ./internal/experiments/
	$(GO) test -count=1 ./cmd/colorbars-benchpair/

# bench-pair times every workload BENCHMARK.json lists (clean-16csk,
# chaos-4csk and fleet) on BASE and on the working tree, alternating
# the two for 10 pairs on this host, and compares them against
# BENCHMARK.json's bounds (see cmd/colorbars-benchpair). About
# 18 minutes on 2 vCPUs, so it is not part of ci.
bench-pair:
	@test -n "$(BASE)" || { echo "usage: make bench-pair BASE=<git ref>"; exit 2; }
	$(GO) run ./cmd/colorbars-benchpair -base '$(BASE)'
