GO ?= go

.PHONY: build test vet lint staticcheck race check bench bench-ml benchdiff smoke-ml verify verify-quick loadtest chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

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
# growers, the telemetry funnel, the flow-refinement pair pool) get the real
# exercise; the rest is cheap insurance. The pair pool and the min-cut kernel
# it drives are schedule-sensitive (worker counts change claim interleavings,
# not results), so they get a second, repeated pass to shake out orderings
# the first run happened not to hit. So do the FLOW tests, pinned to two
# workers: the iteration pool serves every FLOW caller.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=2 ./internal/maxflow/ ./internal/flowrefine/
	GOMAXPROCS=2 $(GO) test -race -count=3 -run 'Flow' ./internal/htp/

# Full pre-merge gate: build, vet, htpvet, staticcheck, unit tests, race pass.
check: build vet lint staticcheck test race

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

# Differential certification: run all six algorithm variants (GFM/RFM/FLOW and
# their FM-refined "+" forms) on the generated ISCAS-85 suite and re-verify
# every result with the independent checker in internal/verify — naive cost
# recomputation, capacity/branching/coverage feasibility, the anytime stop
# contract, and the Lemma-1 cross-check. Exits non-zero on any discrepancy.
verify:
	$(GO) run ./cmd/htpcheck -suite

# Same certification on the first two circuits only; fast enough for CI.
verify-quick:
	$(GO) run ./cmd/htpcheck -suite -quick

# Machine-readable benchmark records for the two scaling claims of §3.3:
# Algorithm 2 (spreading metric; sequential vs parallel workers), the
# flow-refinement stage, and the paper-table benchmarks. EXPERIMENTS.md
# quotes these files.
bench:
	$(GO) test -run=NONE -bench='Alg2Scaling|Alg3Scaling|FlowSchedule|MultilevelScaling|FlowRefine' -benchmem -timeout 3600s . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_alg2.json
	$(GO) test -run=NONE -bench='Table1|Table2|Table3' -benchmem -timeout 1800s . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -o BENCH_tables.json

# Multilevel V-cycle scaling sweep alone (n = 2048 .. 262144); the full
# records land in BENCH_alg2.json via `make bench`.
bench-ml:
	$(GO) test -run=NONE -bench=MultilevelScaling -benchmem -timeout 3600s .

# Benchmark regression gate: re-run the Algorithm 2 scaling benchmarks once
# and diff allocation counts against the committed baseline. allocs/op is
# deterministic even at -benchtime=1x (where ns/op is pure noise), so the
# tolerance is zero: any new allocation on the metric hot path fails.
benchdiff:
	$(GO) test -run=NONE -bench=Alg2Scaling -benchtime=1x -benchmem -timeout 900s . \
		| $(GO) run ./cmd/benchjson -o /tmp/htp-bench-head.json
	$(GO) run ./cmd/benchdiff -metric allocs/op -tolerance 0 BENCH_alg2.json /tmp/htp-bench-head.json

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
