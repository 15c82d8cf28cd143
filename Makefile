# Convenience targets; everything is plain `go` underneath.

.PHONY: build test test-race lint check chaos chaos-ingest chaos-lifecycle fuzz-smoke e2e-golden bench bench-smoke bench-e2e experiments examples fmt vet

build:
	go build ./...

# -shuffle=on randomizes test order so accidental inter-test state
# dependencies fail loudly instead of silently passing in source order.
test:
	go test -shuffle=on ./...

# Race-check the whole module: shared query/task state is mutated from
# handler goroutines in cluster/gateway, and the obs metric primitives are
# written against concurrent snapshot readers.
test-race:
	go test -race ./...

# The seeded chaos suite: TPC-H queries through an embedded cluster while the
# fault injector kills workers, drops RPCs and stalls reads. Always race-
# enabled. Each test logs its seed; replay one failure deterministically with
# `CHAOS_SEED=<seed> make chaos`.
chaos:
	go test -race -count=1 -v -run TestChaos ./internal/cluster

# The real-time slice of the chaos suite: a continuous producer streams events
# through the partitioned log into druid segments while hybrid queries run on
# a faulted cluster. Asserts the 5s event-to-queryable SLA and row-exact
# results after quiesce. Replay with `CHAOS_SEED=<seed> make chaos-ingest`.
chaos-ingest:
	go test -race -count=1 -v -run TestChaosIngest ./internal/cluster

# The process-death slice of the chaos suite: rolling restarts of the ingest
# process (SIGKILL + WAL recovery) and of both coordinators (graceful drain +
# replacement) while an acked producer streams and hybrid queries run through
# the gateway's resubmitting /v1/execute. Asserts zero acked-event loss,
# monotonic duplicate-free counts, 5s freshness recovery after every restart,
# and row-exact results post quiesce. Also picks up the WAL torn-tail
# crash-recovery property tests in internal/ingest. Replay one seed with
# `CHAOS_SEED=<seed> make chaos-lifecycle`.
chaos-lifecycle:
	go test -race -count=1 -v -run TestChaosLifecycle ./internal/cluster ./internal/ingest

# Brief randomized runs of the fuzz targets on top of their checked-in
# corpora (testdata/fuzz beside each): the vector kernels (open-addressing
# hash tables, the WHERE selection kernel, and the key encoder, which is
# also the sort order: equal bytes exactly when two values are equal, and
# then equal hashes; bytewise order is ORDER BY's, complemented for DESC),
# the Parquet file decoder (a valid file with bytes changed, read by the columnar and the
# legacy reader: same rows or both refuse, no panic, no allocation the file's
# size does not cover),
# the page codec's decoder (any bytes, as they come and sealed into a valid
# frame: a page or an error, no panic, nothing allocated that the input's size
# does not cover, and a decoded page encodes back to itself), the envelope
# every response that carries pages is read from (any bytes, as they come and
# sealed into a valid header frame so its binary layout is read too: a
# result or an error, no panic, nothing returned that the input does not
# cover, and what reads encodes back to itself), the statement and task
# documents of the binary codec (any bytes: a document that encodes back to
# the same bytes, or an error, no panic), the druid broker's query body (any
# bytes: a query that encodes back to the same bytes, or an error, no panic,
# no list longer than the input), the rendering of pushed comparisons
# (two decoded from the input: equal strings only from equal comparisons,
# since EXPLAIN shows them) and the WAL's record batches (any payload: a batch
# that encodes back to the same bytes, or an error, no panic, no count
# allocated past the payload). CI runs this as a smoke; crank -fuzztime
# locally to dig deeper. New crashers land in testdata/fuzz — check them in.
FUZZTIME ?= 30s
fuzz-smoke:
	go test -fuzz '^FuzzGroupTable$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/execution/vector/
	go test -fuzz '^FuzzJoinTable$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/execution/vector/
	go test -fuzz '^FuzzSelectTrue$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/execution/vector/
	go test -fuzz '^FuzzAppendKey$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/execution/vector/
	go test -fuzz '^FuzzReadFile$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/parquet/
	go test -fuzz '^FuzzDecodePage$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/block/
	go test -fuzz '^FuzzReadEnvelope$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/block/
	go test -fuzz '^FuzzDecodeStatement$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/cluster/
	go test -fuzz '^FuzzDecodeTask$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/cluster/
	go test -fuzz '^FuzzDecodeQuery$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/druid/
	go test -fuzz '^FuzzComparisonString$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/expr/
	go test -fuzz '^FuzzDecodeBatch$$' -fuzztime $(FUZZTIME) -run '^$$' ./internal/ingest/

# Static analysis: go vet plus the project's own invariant suite
# (internal/analysis, run by cmd/prestolint). prestolint enforces twelve
# analyzers — lockheld, ctxflow, errdrop, atomicmix, hotalloc, goleak,
# chanmisuse, clockdet, closeleak, obshygiene, reachability, nogob — and exits
# non-zero on any unsuppressed finding (hotalloc covers the vector kernels, the
# block package and the druid store and connector that run on them;
# reachability flags what no binary under cmd/ or examples/ reaches, and needs
# the whole module: on a sub-tree without a package main it says nothing, so
# filter instead — `go run ./cmd/prestolint -only reachability ./... | grep
# internal/druid`). Suppress individual
# findings only with `//lint:ignore <analyzer> <reason>`; a directive missing
# its reason (or naming an unknown analyzer) is itself a finding. CI runs this
# as its own cached job; locally it is part of `make check`.
lint:
	go vet ./...
	go run ./cmd/prestolint ./...

# The pre-commit gate: everything a PR must pass, i.e. CI's check and lint
# jobs (lint includes go vet; e2e-golden is the ~5 s guard that no benchmark
# statement changed its answer; bench-smoke runs the package-local benchmark
# bodies once, which `go test` never does).
# test covers the chaos suite too (TestChaos* are ordinary go tests);
# `make chaos` re-runs just that slice verbosely with seeds logged.
check: build lint test test-race e2e-golden bench-smoke

# Three ways to measure, one job each: bench-e2e (cmd/e2ebench) judges a PR,
# experiments (cmd/prestobench) reproduces the paper's figures, and a
# package-local `go test -bench` digs into one layer.
bench:
	go test -bench=. -benchmem ./...

# One iteration of the five layer benchmarks nothing else measures —
# driver-count scaling, the cache hierarchy off/on, vectorized vs row
# expression evaluation, QuadTree fan-out, and the druid store's four query
# shapes over sealed and open segments (ns/row and allocs/op: per segment, not
# per row) — so their bodies cannot rot unseen.
bench-smoke:
	go test -run '^$$' -bench 'IntraTaskParallelism|DashboardQPS|ExprVectorizedVsRow|GeoQuadTreeParams|DruidExecute' -benchtime=1x -benchmem ./internal/core ./internal/cluster ./internal/expr ./internal/geo ./internal/druid

# The repository's one end-to-end benchmark (BENCHMARK.json; metric catalogue
# in internal/e2ebench/README.md): every workload through the gateway, both
# metric sets. This is the benchmark a PR is judged on.
bench-e2e:
	go run ./cmd/e2ebench

# The benchmark's answer key, without the benchmark (~5 s): every adhoc
# statement any seed can draw is re-run on a single-driver reference engine
# and compared with internal/e2ebench/golden.json. A planner or reader change
# that alters an answer fails here, on push, instead of as `"correct":false`
# in the benchmark run that judges the PR.
e2e-golden:
	go run ./cmd/e2ebench -golden check

experiments:
	go run ./cmd/prestobench -experiment all

# Every example end to end (CI's check job runs this): what prestolint's
# reachability pass counts as reached because an example uses it — the druid
# broker over HTTP in examples/federation, the gateway's proxying client in
# examples/federation_gateway — is exercised here, so it cannot rot.
examples:
	go run ./examples/quickstart
	go run ./examples/federation
	go run ./examples/geospatial
	go run ./examples/nested
	go run ./examples/cloud
	go run ./examples/federation_gateway
	go run ./examples/realtime

fmt:
	gofmt -w .

vet:
	go vet ./...
