GO ?= go

.PHONY: all build vet fmt-check staticcheck test race check shutdown-smoke metrics-audit bench-selftest bench bench-updates bench-queries bench-smoke bench-allocs bench-e2e bench-backends bench-continuous fuzz race-stress

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails, listing the offenders, when any Go file in the tree
# is not gofmt-formatted.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# staticcheck covers the wire-facing package with the checks vet does
# not run (unused results, suspicious conversions, API misuse). The
# binary is not vendored: when it is absent the target degrades to a
# notice instead of failing, and CI installs it explicitly.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./internal/protocol/...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# -shuffle=on randomizes test order within each package, so hidden
# order dependencies fail fast instead of lurking.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# shutdown-smoke drives the in-process server with open-loop load and
# initiates graceful shutdown mid-run: every request that completed
# before the drain began must have succeeded, and the drain must finish
# inside the deadline without force-closing connections (loadgen exits
# nonzero otherwise).
shutdown-smoke:
	$(GO) run ./cmd/casper-loadgen -duration 4s -rate 400 -conns 2 -inflight 32 \
	  -users 200 -targets 100 -shutdown-after 2s -drain-deadline 5s -out ""

# metrics-audit cross-checks the registered casper_* metric families
# against the DESIGN.md §8 inventory, in both directions: a metric
# added without documentation fails, and so does documentation for a
# metric that was renamed or removed.
metrics-audit:
	$(GO) test -run TestMetricsAudit -count=1 ./cmd/casperd

# bench-selftest compiles, vets and self-tests the repository benchmark
# (benchmark/, named by BENCHMARK.json). It is a module of its own that
# imports casper/internal/..., so `go build ./...` and `go test ./...`
# at the root never see it: a change to a package it imports can break
# it unnoticed until the benchmark is next run. Its tests run every
# workload at 1/100 scale against the oracle.
bench-selftest:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# check is the CI gate: everything must build, vet clean (plus
# staticcheck when present), be gofmt-formatted, pass the full suite
# under the race detector (the framework is concurrent), keep the
# metric inventory honest, drain cleanly under load, and leave the
# repository benchmark compiling and passing its self-test.
check: build vet fmt-check staticcheck race metrics-audit shutdown-smoke bench-selftest

bench:
	$(GO) test -bench=. -benchmem

# bench-updates measures the default (adaptive) backend's write path —
# serial, parallel and batched location updates plus the parallel
# query/update mix — and records the numbers in BENCH_updates.json.
# The adaptive anonymizer serializes updates behind one write lock, so
# the parallel numbers show lock overhead, not a speedup.
bench-updates:
	$(GO) test -run XXX -bench 'Updates|ParallelMixed' -benchmem . | tee /tmp/bench-updates.txt
	@awk -v cpus="$$(nproc 2>/dev/null || echo unknown)" \
	'BEGIN { printf "{\n  \"cpus\": \"%s\",\n  \"headline\": \"BenchmarkSerialUpdates vs BenchmarkBatchUpdates ns/op per user update (batching amortizes the server write lock, snapshot publish and cache bump); the parallel variants run the same single-writer-lock path from GOMAXPROCS goroutines\",\n  \"benchmarks\": [\n", cpus; first = 1 } \
	/^Benchmark/ { if (!first) printf ",\n"; first = 0; \
	  printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", $$1, $$2, $$3; \
	  if ($$5 != "") printf ", \"bytes_per_op\": %s", $$5; \
	  if ($$7 != "") printf ", \"allocs_per_op\": %s", $$7; \
	  printf "}" } \
	END { printf "\n  ]\n}\n" }' /tmp/bench-updates.txt > BENCH_updates.json
	@echo "wrote BENCH_updates.json"

# bench-queries measures the snapshot-isolated query path and records
# the numbers in BENCH_queries.json: serial and parallel NN
# throughput, the query kernels with allocs/op (BenchmarkNN/KNN/Range),
# and the query-vs-update contention pair
# (BenchmarkParallelNNUnderUpdates vs the reconstructed RWMutex
# discipline). Headlines: allocs/op of BenchmarkNN (bench-allocs
# budget 5), and ParallelNNUnderUpdates vs
# ParallelNNRWMutexUnderUpdates at the recorded cpus.
bench-queries:
	$(GO) test -run XXX -bench 'BenchmarkNN|BenchmarkKNN|BenchmarkRange|ParallelNN|SerialNN' -benchmem . | tee /tmp/bench-queries.txt
	@awk -v cpus="$$(nproc 2>/dev/null || echo unknown)" \
	'BEGIN { printf "{\n  \"cpus\": \"%s\",\n  \"headline\": \"BenchmarkNN allocs/op (scratch arena); BenchmarkParallelNNUnderUpdates vs BenchmarkParallelNNRWMutexUnderUpdates (snapshot isolation)\",\n  \"benchmarks\": [\n", cpus; first = 1 } \
	/^Benchmark/ { if (!first) printf ",\n"; first = 0; \
	  printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", $$1, $$2, $$3; \
	  if ($$5 != "") printf ", \"bytes_per_op\": %s", $$5; \
	  if ($$7 != "") printf ", \"allocs_per_op\": %s", $$7; \
	  printf "}" } \
	END { printf "\n  ]\n}\n" }' /tmp/bench-queries.txt > BENCH_queries.json
	@echo "wrote BENCH_queries.json"

# bench-smoke runs every benchmark once so they cannot bit-rot; CI
# runs this on each push.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime=1x ./...

# bench-allocs asserts the query kernels' allocation budgets: with
# tracing compiled in but no trace attached, BenchmarkNN must stay at
# or below 5 allocs/op (the PR 4 scratch-arena baseline is 3; the
# margin absorbs harness noise, not regressions). A tracing change
# that makes the disabled path allocate fails CI here. The R-tree k-NN
# search must stay at or below 4 KB/op (BenchmarkNearestK10K; its
# frontier queues 16-byte node entries, never items), and the client's
# k-NN refinement at or below 2 allocs/op (BenchmarkRefineKNN; it
# allocates only the k-item result), and one serialized wire round trip
# at or below 11 allocs/op (BenchmarkProtocolSerialized; its count when
# the per-request traced view of core.Casper was pinned to the stack, so
# a view that escapes to the heap on the dispatch path fails here). One
# standing query of the BenchmarkMonitorBuddies set-up must retain at
# most 2422 B of live heap (B/watch; 1938 B measured with candidate
# lists held as 4-byte slots, + 25 %; 17,722 B when each list was a
# copy of 56-byte items), and one update of it must allocate at most
# 17369 B (B/op over 3000 updates; 13,895 B measured when events carry
# the change to a candidate list, + 25 %; 598,666 B when each event
# carried the whole list). A gated benchmark that does not run fails
# too.
bench-allocs:
	$(GO) test -run XXX -bench 'BenchmarkNN$$' -benchmem . | tee /tmp/bench-allocs.txt
	@awk '/^BenchmarkNN\// || /^BenchmarkNN-/ || /^BenchmarkNN / { \
	  if ($$7+0 > 5) { printf "FAIL: %s allocates %s allocs/op (budget 5)\n", $$1, $$7; exit 1 } \
	  else { printf "ok: %s at %s allocs/op (budget 5)\n", $$1, $$7 } }' /tmp/bench-allocs.txt
	$(GO) test -run XXX -bench 'BenchmarkNearestK10K$$|BenchmarkRefineKNN$$' -benchmem ./internal/rtree ./internal/privacyqp | tee /tmp/bench-allocs-kernels.txt
	@awk '/^BenchmarkNearestK10K/ { knn = 1; \
	  if ($$5+0 > 4096) { printf "FAIL: %s uses %s B/op (budget 4096)\n", $$1, $$5; bad = 1 } \
	  else { printf "ok: %s at %s B/op (budget 4096)\n", $$1, $$5 } } \
	  /^BenchmarkRefineKNN/ { refine = 1; \
	  if ($$7+0 > 2) { printf "FAIL: %s allocates %s allocs/op (budget 2)\n", $$1, $$7; bad = 1 } \
	  else { printf "ok: %s at %s allocs/op (budget 2)\n", $$1, $$7 } } \
	  END { if (!knn || !refine) { print "FAIL: a gated kernel benchmark did not run"; bad = 1 } exit bad }' /tmp/bench-allocs-kernels.txt
	$(GO) test -run XXX -bench 'BenchmarkProtocolSerialized$$' -benchmem ./internal/protocol | tee /tmp/bench-allocs-protocol.txt
	@awk '/^BenchmarkProtocolSerialized/ { ran = 1; \
	  if ($$7+0 > 11) { printf "FAIL: %s allocates %s allocs/op (budget 11)\n", $$1, $$7; bad = 1 } \
	  else { printf "ok: %s at %s allocs/op (budget 11)\n", $$1, $$7 } } \
	  END { if (!ran) { print "FAIL: BenchmarkProtocolSerialized did not run"; bad = 1 } exit bad }' /tmp/bench-allocs-protocol.txt
	$(GO) test -run XXX -bench 'BenchmarkMonitorBuddies$$' -benchtime 3000x -benchmem ./internal/continuous | tee /tmp/bench-allocs-monitor.txt
	@awk '/^BenchmarkMonitorBuddies/ { for (i = 3; i < NF; i++) { if ($$(i+1) == "B/watch") bw = $$i; if ($$(i+1) == "B/op") bop = $$i } } \
	  END { if (bw == "" || bop == "") { print "FAIL: BenchmarkMonitorBuddies did not report B/watch and B/op"; exit 1 } \
	    if (bw + 0 > 2422) { printf "FAIL: a standing query retains %s B (budget 2422)\n", bw; bad = 1 } \
	    else printf "ok: a standing query retains %s B (budget 2422)\n", bw; \
	    if (bop + 0 > 17369) { printf "FAIL: a monitor update allocates %s B (budget 17369)\n", bop; bad = 1 } \
	    else printf "ok: a monitor update allocates %s B (budget 17369)\n", bop; \
	    exit bad }' /tmp/bench-allocs-monitor.txt

# bench-e2e measures the wire protocol end to end and records the
# numbers in BENCH_e2e.json. Two layers: the single-connection
# microbenchmark pair (BenchmarkProtocolSerialized, one request in
# flight, vs BenchmarkProtocolPipelined, 64 in flight; the pipelining
# bar is >= 2x the serialized requests/second) and a 10-second open-loop
# casper-loadgen run against an in-process server (p50/p99/p99.9
# latency, error and shed rates vs the SLO), with 200 standing
# continuous watches plus churn riding the update stream so the
# monitor's incremental maintenance is part of the measured load. The
# ratio is the robust headline; the SLO grade is open-loop and
# therefore charges any host-level stall to the tail, so on small
# shared CI machines it can flip run to run at the same offered rate.
bench-e2e:
	$(GO) test -run XXX -bench 'BenchmarkProtocol(Serialized|Pipelined)$$' -benchmem ./internal/protocol | tee /tmp/bench-pipeline.txt
	$(GO) run ./cmd/casper-loadgen -duration 10s -rate 1000 -subscribe 200 \
	  -pipeline-bench /tmp/bench-pipeline.txt -out BENCH_e2e.json
	@echo "wrote BENCH_e2e.json"

# bench-backends smokes the pluggable-backend surface: every registered
# backend cloaks once under the per-backend microbenchmark, then the
# full comparison harness runs at quick scale and the emitted CSV's
# header is checked against the schema results_csv/backends_quick.csv
# was committed with — a column rename or a backend dropping out of the
# registry fails CI here.
bench-backends:
	$(GO) test -run XXX -bench BenchmarkBackendCloak -benchtime=1x ./internal/anonymizer
	$(GO) run ./cmd/casper-bench -compare -users 2000 -targets 1000 -csv /tmp/bench-backends-csv
	@head -1 /tmp/bench-backends-csv/backends_quick.csv | grep -qx \
	  'backend,k_mean,k_satisfied_frac,area_cells_mean,entropy_mean_bits,entropy_min_bits,degenerate_frac,linkage_surviving_frac,candidates_mean,cloak_us,query_us,transmit_us' \
	  || { echo "FAIL: backends_quick.csv header schema changed"; head -1 /tmp/bench-backends-csv/backends_quick.csv; exit 1; }
	@for b in basic adaptive cluster geoind; do \
	  grep -q "^$$b," /tmp/bench-backends-csv/backends_quick.csv \
	    || { echo "FAIL: backend $$b missing from comparison CSV"; exit 1; }; \
	done
	@echo "ok: all four backends present, CSV schema stable"

# bench-continuous measures the continuous-query monitor and records
# the numbers in BENCH_continuous.json: per-update maintenance cost at
# 1k/10k/100k standing queries, batched ingestion, the buddy-heavy
# write path, and the exact cost of a moving asker's cloak updates
# (BenchmarkMonitorNNRecloak, ungated). Gated here:
# BenchmarkMonitorBuddies evals/update (deltas must absorb all but
# <= 0.5 Algorithm 2 re-runs per monitor update). The first
# awk is generalized over paired "value unit" benchmark fields, so the
# custom evals/update and safehits/update metrics land in the JSON next
# to ns/op.
bench-continuous:
	$(GO) test -run XXX -bench 'BenchmarkMonitor' -benchmem ./internal/continuous | tee /tmp/bench-continuous.txt
	@awk -v cpus="$$(nproc 2>/dev/null || echo unknown)" \
	'BEGIN { printf "{\n  \"cpus\": \"%s\",\n  \"headline\": \"BenchmarkMonitorBuddies evals/update (deltas, acceptance <= 0.5); BenchmarkMonitorIndexedUpdate ns/op per update at 1k/10k/100k standing queries\",\n  \"benchmarks\": [\n", cpus; first = 1 } \
	/^Benchmark/ { if (!first) printf ",\n"; first = 0; \
	  printf "    {\"name\": \"%s\", \"iterations\": %s", $$1, $$2; \
	  for (i = 3; i < NF; i += 2) { \
	    unit = $$(i+1); gsub(/\//, "_per_", unit); gsub(/[^A-Za-z0-9_]/, "_", unit); \
	    printf ", \"%s\": %s", unit, $$i; \
	  } \
	  printf "}" } \
	END { printf "\n  ]\n}\n" }' /tmp/bench-continuous.txt > BENCH_continuous.json
	@awk '/^BenchmarkMonitorBuddies/ { for (i = 3; i < NF; i++) if ($$(i+1) == "evals/update") ev = $$i } \
	  END { if (ev == "") { print "FAIL: BenchmarkMonitorBuddies missing from bench output"; exit 1 } \
	    if (ev + 0 > 0.5) { printf "FAIL: buddy-heavy updates re-run Algorithm 2 %s times per update (need <= 0.5)\n", ev; exit 1 } \
	    printf "ok: %.3f evals/update on the buddy-heavy write path\n", ev }' /tmp/bench-continuous.txt
	@echo "wrote BENCH_continuous.json"

# fuzz exercises the v2 frame decoder and codecs beyond the committed
# seed corpus (internal/protocol/testdata/fuzz), Theorem 3 with the
# asker hidden (FuzzPrivateNNInclusive), and the continuous monitor's
# delta maintenance against fresh evaluations
# (FuzzMonitorDeltaEquivalence; its minimization is capped so a new
# input cannot stall the short budget). Each fuzzer gets a short
# budget; go only allows one -fuzz pattern per invocation.
fuzz:
	$(GO) test -run XXX -fuzz FuzzV2DecodeRequest -fuzztime 10s ./internal/protocol
	$(GO) test -run XXX -fuzz FuzzV2DecodeResponse -fuzztime 10s ./internal/protocol
	$(GO) test -run XXX -fuzz FuzzV2ReadFrame -fuzztime 10s ./internal/protocol
	$(GO) test -run XXX -fuzz FuzzPrivateNNInclusive -fuzztime 10s ./internal/privacyqp
	$(GO) test -run XXX -fuzz FuzzMonitorDeltaEquivalence -fuzztime 10s -fuzzminimizetime 50x ./internal/continuous

# race-stress runs the concurrency stress suites repeatedly under the
# race detector: the anonymizer backends' stress, the identity table's
# concurrent churn, the core batch workload, the server/WAL
# interleavings, the casperd scrape-under-traffic trace-ring stress,
# the continuous-query monitor's single-lock stress, the privacy
# observatory's concurrent observers, the R-tree's readers of
# copy-on-write snapshots racing a clone-mutate-publish writer, the
# public memo's readers on old and new snapshots racing public churn,
# and the wire client's abandoned-call race (ContextDeadline).
race-stress:
	$(GO) test -race -count=3 -run 'Stress|Concurrent|Batch|ContextDeadline' ./internal/anonymizer ./internal/pyramid ./internal/core ./internal/server ./internal/protocol ./internal/continuous ./internal/privacyobs ./internal/rtree ./cmd/casperd
