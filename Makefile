# Development and CI entry points. `make check` is what CI runs.

GO ?= go

.PHONY: all build fmt vet lint test test-short race fuzz bench-layers bench-tables serve smoke-serve smoke-trace smoke-cluster smoke-async perfbench-check check

all: check

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The repo-specific analyzer suite (see internal/lint and the "Static
# analysis" section of README.md): detrange, noclock, fiberpark,
# atomicfield, obsnil. Blocking in `make check` and CI, exactly like
# fmt and vet. Suppress a single finding with
# `//lint:allow <analyzer> <why>` on the offending line.
lint:
	$(GO) run ./cmd/mstlint ./...

test:
	$(GO) test ./...

# Short mode skips the two slow bench-table sweeps (e9, e10) and the
# large-graph runs so CI stays inside its time budget; the full table
# regeneration is `make bench-tables`.
test-short:
	$(GO) test -short ./...

# Race-detect the whole module, not a hand-picked package list, so new
# packages are never silently unraced; -short keeps the bench sweeps
# and large-graph smokes off the clock (CI's dedicated smoke jobs run
# those race-enabled with explicit -run filters).
race:
	$(GO) test -race -short ./...

# Coverage-guided fuzzing of NDJSON edge lists through graph.Builder →
# Run against a Kruskal oracle (FUZZTIME, which matches the CI budget;
# crank it locally, `make fuzz FUZZTIME=10m`, for a deeper hunt), then
# 15 s each of the cluster mesh's batch decoder (internal/nettrans), the
# worker's job decoder, the driver's result decoder and the cluster
# config parser (internal/cluster), and the edge-update stream parser
# (internal/dynamic).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzBuildAndRun -fuzztime $(FUZZTIME) .
	$(GO) test -run '^$$' -fuzz FuzzDecodeBatch -fuzztime 15s ./internal/nettrans/
	$(GO) test -run '^$$' -fuzz FuzzDecodeJob -fuzztime 15s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzDecodeResult -fuzztime 15s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzParseConfig -fuzztime 15s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz FuzzParseOps -fuzztime 15s ./internal/dynamic/

# Time and allocations per op of whole runs (Elkin on a message-bound
# and a round-bound graph, the message-bound one on every other engine
# too, GHS, Pipeline), of the shard round and the two park paths every
# engine shares (the calendar and a Step-kit window) and of the two
# fragment-tree operations a Controlled-GHS phase runs most.
bench-layers:
	$(GO) test -run '^$$' -bench '^Benchmark(ElkinMST|ElkinMSTLollipop|ElkinMSTEngines|GHSMST|PipelineMST)$$' -benchmem .
	$(GO) test -run '^$$' -bench '^Benchmark(Calendar|StepWindow|ShardRound)$$' -benchmem ./internal/congest/
	$(GO) test -run '^$$' -bench '^Benchmark(Convergecast|Broadcast)$$' -benchmem ./internal/fragops/

bench-tables:
	$(GO) run ./cmd/mstbench

# The MST job server (HTTP API; see the mstserved section of README.md),
# with pprof profiling endpoints on for local work.
serve:
	$(GO) run ./cmd/mstserved -pprof

# End-to-end mstserved smoke against a race-built binary: upload,
# run-to-completion, cache-hit check, /metrics scrape, mid-run cancel.
# What CI runs.
smoke-serve:
	sh scripts/smoke_mstserved.sh

# End-to-end run-trace smoke: mstrun -trace on a 10^4-vertex grid, then
# strict NDJSON schema validation. What CI runs.
smoke-trace:
	sh scripts/smoke_trace.sh

# Multi-process cluster smoke against race-built binaries: mstshard
# worker fleet, mstrun -cluster parity vs the in-process engine, a
# chaos fleet that severs mesh sockets mid-run (must heal with
# identical stats), and an mstserved remote job whose /metrics must
# expose the cluster transport families. What CI runs.
smoke-cluster:
	sh scripts/smoke_cluster.sh

# Race-enabled async-engine smoke: the windowed delivery path, the
# quiescence detector and the seeded-determinism regression gate
# (TestEngineMatrixAsyncEquivalence: same AsyncSeed, bit-identical
# Stats) under the race detector. Part of `make check` and CI; the
# plain (unraced) async tests also run inside test-short.
smoke-async:
	$(GO) test -race -short -run 'Async' ./internal/parsim/ .

# The benchmark (perfbench/) is its own Go module, so `go test ./...`
# never builds it: vet and short-test it here, so an API change that
# breaks `bash perfbench/run.sh` fails check instead of the benchmark.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -short ./...

check: build fmt vet lint test-short smoke-async perfbench-check
