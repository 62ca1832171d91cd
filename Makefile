# Reproduction of "MPC: Minimum Property-Cut RDF Graph Partitioning"
# (ICDE 2022). Stdlib-only Go; everything runs offline.

GO ?= go

.PHONY: all build test test-race check flake cover bench bench-full bench-json bench-smoke bench-compare bench-online bench-scale benchmark benchmark-smoke experiments transport-race transport-smoke server-smoke scale-smoke repart-smoke oracle oracle-race update-race repart-race sparql11-race clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The CI gate: formatting, vet, build, and the full test suite under the
# race detector. Fails on any Go file gofmt would change.
check:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...

# Flake guard: the packages with timing-sensitive tests (HTTP overload,
# the scheduler's admission queue) run ten times over. Add a package here
# when it gains a test whose outcome depends on scheduling.
flake:
	$(GO) test -count=10 ./cmd/mpc-server ./internal/serve

cover:
	$(GO) test -cover ./...

# One pass over every table/figure benchmark at the quick scale.
bench:
	$(GO) test -bench . -benchtime 1x -benchmem .

# Paper-shaped scale; prints the regenerated tables.
bench-full:
	MPC_BENCH_FULL=1 MPC_BENCH_PRINT=1 $(GO) test -bench . -benchtime 1x .

# Offline-scaling sweep over worker counts; writes BENCH_offline.json.
bench-json:
	$(GO) run ./cmd/mpc-bench -exp offline -triples 300000 -json BENCH_offline.json

# Online query-path measurements; writes BENCH_online.json.
bench-online:
	$(GO) run ./cmd/mpc-bench -exp online -triples 50000 -json BENCH_online.json

# Flat-vs-block serving comparison (heap at load, peak heap, digest
# identity); writes BENCH_scale.json.
bench-scale:
	$(GO) run ./cmd/mpc-bench -exp scale -triples 1000000 -json BENCH_scale.json

# The repo benchmark (BENCHMARK.json): the four workloads over the real
# serving path and the offline pipeline, as the PR driver runs it. Takes
# a few minutes; see benchmark/README.md for single workloads, the
# traced per-layer pass and -selfcheck.
benchmark:
	bash benchmark/run.sh

# One-second pass of every workload: the benchmark exits 1 on any answer
# that differs from its golden, so this checks answers over mmap block
# stores and TCP sites at benchmark scale.
benchmark-smoke:
	bash benchmark/run.sh -seconds 1

# Alternating-pair comparison of the repo benchmark between BASE and the
# working tree: median, IQR, win share and BENCHMARK.json's bound check per
# metric × workload; fails on an out-of-bound regression. WORKLOADS
# defaults to all four; PAIRS and BENCH_ARGS pass through (see the script).
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<rev> [WORKLOADS='watdiv_uncached ...']"; exit 2; }
	bash scripts/bench_compare.sh $(BASE) $(WORKLOADS)

# Every Benchmark function once (-benchtime=1x): catches bit-rot in
# benchmark-only code without paying for real measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Focused race pass over the network transport, the coordinator that
# drives it, and the concurrent serving layer on top (also covered by
# check; kept separate for fast iteration).
transport-race:
	$(GO) test -race ./internal/transport/... ./internal/cluster/... \
		./internal/serve/... ./internal/qcache/...

# Differential-testing oracle (internal/oracle): every strategy ×
# partitioner combination cross-checked against the naive reference
# evaluator on the randomized seed corpus. `oracle` is the quick gate
# (-short trims the corpus); `oracle-race` runs the full corpus — including
# the loopback-TCP combination — under the race detector.
oracle:
	$(GO) test -short -count=1 ./internal/oracle/

oracle-race:
	$(GO) test -race -count=1 ./internal/oracle/

# Generalized SPARQL 1.1 operator corpus under the race detector: the
# parser/generator/classification tests for OPTIONAL, UNION, FILTER and
# property paths, the operator-tree evaluator in internal/cluster (left-outer
# joins, union merge, the coordinator's path closure), the store's filter
# pushdown, and the generalized differential corpora cross-checked against
# the naive reference evaluator (internal/oracle).
sparql11-race:
	$(GO) test -race -count=1 \
		-run 'General|Optional|Union|Filter|Path|RandomQuery|EvalQuery|DifferentialCorpus|QueryCodec' \
		./internal/sparql/ ./internal/store/ ./internal/cluster/ \
		./internal/transport/ ./internal/oracle/

# Live-update corpus under the race detector: the randomized insert/delete
# streams cross-checked against the naive evaluator after every batch and
# against concurrent reads (internal/oracle), the concurrent write/read
# interleavings and the read protocol's release/rerun/pin tests in
# internal/cluster, the update RPC path, and the serve-level cache
# invalidation tests.
update-race:
	$(GO) test -race -count=1 \
		-run 'Update|Apply|Drift|Mutat|Invalidat|Epoch|ReadProtocol' \
		./internal/oracle/ ./internal/cluster/ ./internal/transport/ \
		./internal/serve/ ./internal/qcache/ ./internal/rdf/ \
		./internal/store/ ./cmd/mpc-server/

# Live-migration and repartitioning corpus under the race detector: the
# plan/apply equivalence oracle, the migration-transparency and concurrent
# cutover interleavings, the migration RPC path, store compaction, and the
# repartitioner policy/trigger tests.
repart-race:
	$(GO) test -race -count=1 \
		-run 'Migrat|Repart|Compact|Policy' \
		./internal/partition/ ./internal/cluster/ ./internal/transport/ \
		./internal/store/ ./internal/repart/ ./internal/oracle/

# End-to-end loopback smoke: real mpc-site processes serving exported
# snapshots, a join query through mpc-query -sites, measured wire stats
# asserted, a mismatched coordinator refused at connect time.
transport-smoke:
	bash scripts/transport_smoke.sh

# Serving-stack smoke: mpc-site processes + mpc-server frontend, concurrent
# HTTP queries asserted digest-identical, cache and scheduler metrics
# asserted via /debug/metrics.
server-smoke:
	bash scripts/server_smoke.sh

# Large-dataset smoke: ~1M triples generated as N-Triples, streamed through
# ingest and partitioning under GOMEMLIMIT, served from mmap-backed block
# snapshots by real mpc-site processes, result digests asserted identical
# to the in-memory path.
scale-smoke:
	bash scripts/scale_smoke.sh

# Online-repartitioning smoke: real mpc-site processes behind an mpc-server
# started with -repart, drift pushed through POST /update while a query
# loop runs, a migration forced via POST /admin/repart, digests asserted
# identical across the cutover, /debug/repart status asserted.
repart-smoke:
	bash scripts/repart_smoke.sh

# The experiment suite behind EXPERIMENTS.md.
experiments:
	$(GO) run ./cmd/mpc-bench -exp all -triples 100000 -k 8 -logqueries 400 \
		-scales 50000,100000,200000

# Deliverable transcripts (see the task definition in README).
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	$(GO) clean ./...
