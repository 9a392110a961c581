# Verification entry points. `make verify` is the tier-1 gate: build, unit
# tests, and the full race-detector sweep (the staged pipeline engine is
# concurrent code and the gate is callable from any goroutine; -race is not
# optional for them).

GO ?= go

.PHONY: build test race verify verify-quick vet fuzz bench chaos soak alloc-smoke corpus replay scale cluster failover benchdiff loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# -short skips the minutes-long experiment smoke harness (already covered
# unraced by `make test`) while keeping every concurrency test in the sweep;
# the race detector is ~10x, so the full harness would blow the go test
# timeout on small hosts.
race:
	$(GO) test -race -short -timeout 20m ./...

# go vet always; staticcheck rides along when it is on PATH (the container
# image does not bake it in, so its absence is not an error). vet's asmdecl
# holds the nn AVX2 kernel's frame layout to its Go declaration; the arm64
# legs keep the other side of that build constraint — the portable stub and
# everything that calls through it — compiling and vetted. The gofmt leg
# fails when gofmt would rewrite any file, and lists the files.
vet:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt -l: not formatted:"; echo "$$files"; exit 1; fi
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/nn ./internal/predictor
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Non-test Go lines (raw `wc -l`: comments and blanks count) per package and
# for the whole tree outside benchmark/ — the figure CHANGES.md entries quote
# before → after.
loc:
	@for d in $$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs -n1 dirname | sort -u); do \
		printf '%6d %s\n' $$(find $$d -maxdepth 1 -name '*.go' -not -name '*_test.go' | xargs cat | wc -l) $$d; \
	done
	@printf '%6d total outside benchmark/\n' $$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)

# Cheap allocation regression gates for the gating hot loop: a steady-state
# DecideSparseAppend+FeedbackFull round, the batched compiled forward, every
# selector's solve (Ranked with all candidates dirty included), the
# coordinator's solve-and-grant step, a worker's read of a round frame into
# its recycled record and its core's whole round, the container's in-place packet parse and its record
# read into a recycled buffer, and a PGSP round frame's encode and send must stay at ~zero allocs/op
# (testing.AllocsPerRun, no benchmark run needed), and a whole engine round —
# gate loop, decode pool, collector, feedback, rounds overlapping or not,
# behind the gate or a baseline policy — under one small object. One memory
# gate rides along: a temporal-only gate with breakers at m = 50,000 must hold
# at most 260 live bytes per configured stream (TestGateBytesPerStream). The
# last line re-runs the nn and predictor suites with the AVX2 kernel linked out
# (nn.portableOnly), so a host that has AVX2 still exercises the portable
# kernels every other host runs.
alloc-smoke:
	$(GO) test ./internal/core -run 'TestDecideRoundAllocCeiling|TestIncrementalDecideAllocCeiling|TestGateBytesPerStream' -count 1
	$(GO) test ./internal/predictor -run 'TestPredictIntoZeroAlloc|TestWindowZeroAlloc' -count 1
	$(GO) test ./internal/nn -run TestCompiledForwardZeroAlloc -count 1
	$(GO) test ./internal/knapsack -run TestSelectZeroAlloc -count 1
	$(GO) test ./internal/cluster -run 'TestWorkerRoundZeroAlloc|TestWorkerCoreRoundZeroAlloc|TestSolveGrantZeroAlloc' -count 1
	$(GO) test ./internal/container -run 'TestUnmarshalPacketIntoZeroAlloc|TestReadRecordZeroAlloc' -count 1
	$(GO) test ./internal/stream -run TestRoundFrameZeroAlloc -count 1
	$(GO) test ./internal/pipeline -run 'TestEngineRoundAllocCeiling|TestBaselineRoundAllocCeiling' -count 1
	$(GO) test -ldflags '-X packetgame/internal/nn.portableOnly=1' ./internal/nn ./internal/predictor -count 1

verify: build vet test race alloc-smoke replay soak scale cluster failover benchdiff

# Headline-regression gate: after `make scale`/`make failover` rewrite the
# BENCH files, compare their headlines against the copies committed at HEAD
# and fail if a speedup fell below 85% of its baseline or an absolute cost
# (the churn sweep's ns figures) rose above 1/85% of it. Skips (with a note) when a baseline is missing or the
# bench schema version changed.
benchdiff:
	$(GO) run ./cmd/benchdiff

# The inner-loop gate: build, vet, and unraced unit tests only — no race
# sweep, soak, or paper-scale experiment runs. Seconds, not minutes.
verify-quick: build vet test

# The distributed gating cluster gate: the full-size oracle-equality and
# chaos harness under the race detector (10k streams x 8 workers), then the
# chaos benchmark — two worker kills, one rejoin — which self-asserts
# recall within 2% of the stable cluster, the p99 SLO, and same-seed
# determinism. CLUSTERSCALE=1 rewrites BENCH_cluster.json (no benchdiff
# headline: its legs self-assert).
CLUSTERSCALE ?= 1
cluster:
	$(GO) test ./internal/cluster -race -count 1 -timeout 10m
	$(GO) run ./cmd/pgbench -exp cluster -scale $(CLUSTERSCALE)

# The coordinator fail-over gate: primary kill, standby election, orphan
# mode, and crash-proof accounting. The benchmark self-asserts same-seed
# takeover determinism, chaos recall within 2% of the stable cluster, the
# p99 SLO through the takeover storm, and exact oracle re-convergence
# (zero divergent rounds, decision hash unbroken) after a boundary crash.
# FAILOVERSCALE=1 rewrites BENCH_failover.json.
FAILOVERSCALE ?= 1
failover:
	$(GO) run ./cmd/pgbench -exp failover -scale $(FAILOVERSCALE)

# The churn-scaled Decide sweep: m up to 100k, all streams active, with 1%,
# 10%, and 100% of the fleet varying its packet metadata per round. The
# experiment self-asserts the per-round allocation ceiling in every cell
# and, at full scale, the m=100k acceptance ceilings in absolute time (a
# 1%-churn round within the 40 ms round clock, a 100%-churn round within
# 15 µs per changed stream). SCALESCALE=1 rewrites BENCH_scale.json.
SCALESCALE ?= 1
scale:
	$(GO) run ./cmd/pgbench -exp scale -scale $(SCALESCALE)

# Regenerate the committed deterministic capture corpus under
# testdata/captures/. The output is byte-reproducible; the golden tests fail
# if the committed files drift from what this target writes, so format or
# gate changes must re-run it and commit the refreshed corpus.
corpus:
	$(GO) run ./cmd/pgcap corpus

# The capture/replay regression gate: the golden decision-trace audits
# (committed corpus replayed bit-identically through today's gate), the
# capture-container fuzz seeds as plain tests, and the pgbench replay
# experiment — determinism audits, speedup-1 recorded-timing fidelity
# (±5%), and the flat-rate control that flattens recorded bursts.
# REPLAYSCALE=1 also rewrites BENCH_replay.json.
REPLAYSCALE ?= 1
replay:
	$(GO) test ./internal/capture -run 'TestGoldenCorpus|TestFuzzSeedsNonFuzzing' -count 1
	$(GO) run ./cmd/pgbench -exp replay -scale $(REPLAYSCALE)

# The overload soak under the race detector: the compressed diurnal campus
# day with chaos faults and a capacity-collapse incident, replayed with and
# without the budget governor. The experiment self-asserts the SLO, the
# peak-miss gap, FD recall, and bit-identical determinism; scale 0.25 keeps
# the raced run under ~2 minutes. SOAKSCALE=1 reproduces the full m=256
# soak and rewrites BENCH_overload.json.
SOAKSCALE ?= 0.25
soak:
	$(GO) run -race ./cmd/pgbench -exp overload -scale $(SOAKSCALE)

# Short fuzzing sessions for the bitstream parser, the record codec every
# on-disk and wire format frames with, and each format's decoder. Seed
# corpora always run as part of `make test`; this digs deeper.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/parser -fuzz FuzzParser -fuzztime $(FUZZTIME)
	$(GO) test ./internal/parser -fuzz FuzzEmulationRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/container -fuzz FuzzRecord -fuzztime $(FUZZTIME)
	$(GO) test ./internal/container -fuzz FuzzUnmarshalPacket -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream -fuzz FuzzPGSPFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/stream -fuzz FuzzPGSPRoundBody -fuzztime $(FUZZTIME)
	$(GO) test ./internal/capture -fuzz FuzzCaptureContainer -fuzztime $(FUZZTIME)
	$(GO) test ./internal/knapsack -fuzz FuzzOrderKernel -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -fuzz FuzzPGCPRoundFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -fuzz FuzzFailoverRecords -fuzztime $(FUZZTIME) -fuzzminimizetime 5s

# The chaos experiment under the race detector: deterministic fault
# injection, circuit-breaker quarantine, and the self-healing PGSP ingest,
# all exercised concurrently through the pipelined engine.
chaos:
	$(GO) run -race ./cmd/pgbench -exp chaos

# Hot-loop microbenches (with allocation counts). What a whole round costs,
# end to end and layer by layer, is the ledger's to say (benchmark/).
bench:
	$(GO) test ./internal/nn -run NONE -bench 'Forward|Kernel' -benchtime 2s -benchmem
	$(GO) test ./internal/predictor -run NONE -bench PredictInto -cpu 1,2 -benchtime 2s -benchmem
	$(GO) test ./internal/core -run NONE -bench 'DecideRound|DecideSparseTemporal' -benchtime 2s -benchmem
	$(GO) test ./internal/knapsack -run NONE -bench Select -benchtime 300x -benchmem
	$(GO) test ./internal/pipeline -run NONE -bench BenchmarkEngineRounds -benchtime 2s
	$(GO) test ./internal/cluster -run NONE -bench BenchmarkDecodeRoundDelta -benchtime 2s
	$(GO) test . -run NONE -bench . -benchtime 1s
