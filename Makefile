GO ?= go

.PHONY: build test vet fmtcheck lint staticcheck race check bench bench-ml benchdiff bench-gate bench-compile smoke-ml verify verify-quick loadtest chaos loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt gate: fails listing every file (bench/ and testdata/ included) whose
# formatting gofmt would change.
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# htpvet: the project's own analyzers (internal/lint) machine-check the
# solver invariants — seeded determinism, context threading, the
# exactly-one-terminal-stop telemetry contract, goroutine panic containment.
lint:
	$(GO) run ./cmd/htpvet ./...

# staticcheck runs with the checked-in staticcheck.conf when the binary is
# on PATH (CI installs it); locally it degrades to a skip rather than a
# failure so the gate never requires a network fetch.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Race-detector pass over every package. The concurrency hot spots (FLOW's
# iteration pool and event sequencer, the batched metric engine, the SPT
# growers, the self-locking telemetry sinks, the flow-refinement pair pool)
# get the real exercise; the rest is cheap insurance. The pair pool and the
# min-cut kernel it drives are schedule-sensitive (worker counts change claim
# interleavings, not results), so they get a second, repeated pass to shake
# out orderings the first run happened not to hit. So do the FLOW tests,
# pinned to two workers: the iteration pool serves every FLOW caller. So does
# telemetry: solver goroutines emit straight into htpd's event hubs and its
# shared trace sink, so the sinks, the sequencer and the daemon's event paths
# get a repeated two-worker pass too.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/maxflow/ ./internal/flowrefine/
	GOMAXPROCS=2 $(GO) test -race -count=3 -run 'Flow' ./internal/htp/
	GOMAXPROCS=2 $(GO) test -race -count=5 -run 'Sink|Collector|Sequencer' ./internal/obs/
	GOMAXPROCS=2 $(GO) test -race -count=5 -run 'Event|Trace|Hub|Release' ./internal/server/

# Full pre-merge gate: build, gofmt, vet, htpvet, staticcheck, unit tests,
# race pass.
check: build fmtcheck vet lint staticcheck test race

# Service-level load profile: a client fleet saturates an in-process htpd
# (queue deliberately smaller than the offered load) and asserts the
# admission/latency contract; prints p50/p99 and the overload-rejection
# count. Scale with LOADTEST_JOBS / LOADTEST_CLIENTS.
loadtest:
	$(GO) test -run TestLoadProfile -count=1 -v ./internal/server/

# Fault-injection fleet: hundreds of jobs through a panicking, failing,
# stalling solver stack; asserts exactly-one-terminal-state, nothing
# uncertified served, and no goroutine leaks.
chaos:
	$(GO) test -run TestChaos -count=1 -v ./internal/server/chaos/

# Differential certification: run all eight algorithm variants (GFM/RFM/FLOW,
# their FM-refined "+" forms, the V-cycle and the flow-refined V-cycle) on the
# generated ISCAS-85 suite and re-verify every result with the independent
# checker in internal/verify — naive cost recomputation,
# capacity/branching/coverage feasibility, the anytime stop contract, and the
# Lemma-1 cross-check. Exits non-zero on any discrepancy.
verify:
	$(GO) run ./cmd/htpcheck -suite

# Same certification on the first two circuits only; fast enough for CI.
verify-quick:
	$(GO) run ./cmd/htpcheck -suite -quick

# Machine-readable benchmark records for the two scaling claims of §3.3:
# Algorithm 2 (spreading metric; sequential vs parallel workers), the
# V-cycle and its FM descent, the flat and flow refinement stages, and the
# paper-table benchmarks. EXPERIMENTS.md quotes these files. GOMAXPROCS=1
# keeps the -N suffix off the names, so `make benchdiff` finds them on any
# CPU count; the benchmarks that measure parallelism (Alg2Scaling's wN,
# FlowSchedule's procsN) pin their own. The scaling half runs every
# benchmark 5 times and benchjson records each unit's median, so one slow
# run on a shared box does not set a row's time that DESIGN.md and
# EXPERIMENTS.md quote (a single run moved rows of unchanged code by up to
# 2x). allocs/op is the same on every run of a sequential row.
bench:
	GOMAXPROCS=1 $(GO) test -run=NONE -bench='Alg2Scaling|Alg2Coarse|Alg3Scaling|FlowSchedule|MultilevelScaling|FlowRefine|Uncoarsen|FlatRefine' -count=5 -benchmem -timeout 3600s . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_alg2.json
	GOMAXPROCS=1 $(GO) test -run=NONE -bench='Table1|Table2|Table3' -benchmem -timeout 1800s . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_tables.json

# Multilevel V-cycle scaling sweep alone (n = 2048 .. 262144); the full
# records land in BENCH_alg2.json via `make bench`.
bench-ml:
	$(GO) test -run=NONE -bench=MultilevelScaling -benchmem -timeout 3600s .

# Benchmark regression gate, two steps. (1) Re-run the sequential Algorithm 2
# scaling rows, then (a separate run: a -bench pattern with a slash filters
# every family's sub-benchmarks) the smaller coarse-level row and the
# smaller FM descent, once, and diff allocation counts against the committed
# baseline. Each runs sequentially from a fixed seed, so its allocs/op is
# deterministic even at -benchtime=1x (where ns/op is pure noise) and the
# tolerance is zero: any new allocation on the metric or move-selection hot
# path fails. The batched engine's rows (wN, N >= 2) are skipped: which
# worker grows which root depends on scheduling, and so does its arena
# growth. (2) Re-run the carve, the V-cycle, the FM descent and flow
# refinement once and diff allocs/op and B/op against BENCH_gate.json at 1%:
# these rows drift by a few allocations and under 0.3% of their bytes from
# run to run, far less than a lost arena or a map per net would move them.
# The FM descent's bytes are gated here because its allocation count alone
# would not see a CostState arena rebuilt at every level. GOMAXPROCS=1 keeps
# the -N suffix off the benchmark names, so they match the committed ones on
# any CPU count; benchdiff fails when it compared nothing.
GATE_BENCH = Alg3Scaling/n2048|MultilevelScaling/n16384|Uncoarsen/n16384|FlowRefine/c1355

benchdiff:
	{ GOMAXPROCS=1 $(GO) test -run=NONE -bench=Alg2Scaling -skip='Alg2Scaling/./w([2-9]|[1-9][0-9]+)$$' -benchtime=1x -benchmem -timeout 900s . && \
	  GOMAXPROCS=1 $(GO) test -run=NONE -bench='(Alg2Coarse|Uncoarsen)/n16384$$' -benchtime=1x -benchmem -timeout 900s . ; } \
		| $(GO) run ./cmd/benchjson -o /tmp/htp-bench-head.json
	$(GO) run ./cmd/benchdiff -metric allocs/op -tolerance 0 BENCH_alg2.json /tmp/htp-bench-head.json
	GOMAXPROCS=1 $(GO) test -run=NONE -bench='$(GATE_BENCH)' -benchtime=1x -benchmem -timeout 900s . \
		| $(GO) run ./cmd/benchjson -o /tmp/htp-bench-gate.json
	$(GO) run ./cmd/benchdiff -metric allocs/op,B/op -tolerance 0.01 BENCH_gate.json /tmp/htp-bench-gate.json

# Re-record step (2)'s baseline with the gate's own command, after a change
# that moves those allocations on purpose. `make bench` never writes it.
bench-gate:
	GOMAXPROCS=1 $(GO) test -run=NONE -bench='$(GATE_BENCH)' -benchtime=1x -benchmem -timeout 900s . \
		| $(GO) run ./cmd/benchjson -o BENCH_gate.json

# The benchmark under bench/ is a Go module of its own, so the root
# `go build ./...` and `go test ./...` never compile it. This target keeps it
# building against the internal APIs it calls, and checks that its traced
# re-composition of the solver still matches htp.FlowCtx and
# htp.MultilevelCtx bit for bit (~8 s).
bench-compile:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 -run TestComposeMatchesProgram ./...

# End-to-end large-instance smoke: stream-generate a 65536-gate netlist,
# solve it with the multilevel V-cycle under a deadline, and (as htpart
# always does) re-certify the result independently before printing it.
# Set SMOKE_ML_LARGE=1 to also run the 262144-gate rung.
smoke-ml:
	$(GO) run ./cmd/gencircuit -gates 65536 -stream -o /tmp/htp-synth65536.net
	$(GO) run ./cmd/htpart -in /tmp/htp-synth65536.net -multilevel -timeout 300s
	@if [ -n "$$SMOKE_ML_LARGE" ]; then \
		$(GO) run ./cmd/gencircuit -gates 262144 -stream -o /tmp/htp-synth262144.net; \
		$(GO) run ./cmd/htpart -in /tmp/htp-synth262144.net -multilevel -timeout 900s; \
	fi

# Non-test Go lines per package directory, then the total, over the files git
# tracks: _test.go files, bench/ (a module of its own) and testdata/ are left
# out, so the total is what ROADMAP.md's line count reads.
loc:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^bench/' | grep -v /testdata/ | xargs wc -l \
		| awk '$$2 != "total" { d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d  total\n", t }'
