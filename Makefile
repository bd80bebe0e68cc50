GO ?= go

.PHONY: check check-run-patterns fmt build test vet race race-obs race-pipeline race-prefetch race-serve race-join crash guard-obs fuzz bench bench-smoke bench-planner-smoke serve-demo loc

# check is the tier-1 verification gate: everything must compile, pass
# vet and gofmt, and pass the full test suite under the race detector,
# with the observability-layer, morsel-executor, prefetch, serving-layer,
# and relational-executor race tests called out explicitly, the crash-point
# matrix for the durable write path, the allocation guards, one iteration
# of the planner pipeline benchmarks as a smoke test, the benchmark
# module's own vet + toy-scale run, and a check that every test pattern
# named here still matches a test.
check: vet fmt build check-run-patterns race race-obs race-pipeline race-prefetch race-serve race-join crash guard-obs bench-planner-smoke bench-smoke

build:
	$(GO) build ./...

# fmt fails when gofmt would change any Go file tracked by git, and
# lists those files.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-obs focuses the race detector on the observability surfaces: the
# metrics registry and tracer, the flight recorder (concurrent
# begin/progress/finish vs snapshot readers), the pool counters, and the
# atomic reader stats with concurrent Stats/ResetStats.
race-obs:
	$(GO) test -race -count=1 ./internal/obs/ ./internal/exec/ ./internal/colstore/
	$(GO) test -race -count=1 -run 'TestRecorder' .

# guard-obs runs the allocation guards outside the race detector (alloc
# counts change under -race): the fixed per-call bound on the engine's
# one-leaf Count (relq.Scan(...).Where(leaf).Count()), the flight recorder's
# constant-per-query alloc guard (recorder on vs off; the constant must
# not scale with morsel count), the per-extra-row-group bound on the
# sinks every terminal is made of (per-morsel sink state is worker-local),
# the per-extra-row-group byte bound on a join + grouped relational morsel
# (its vectors come from pooled worker slabs), zero allocations for gzip
# and snappy page decompression into a large-enough buffer, zero
# allocations for every SBoost scan kernel into a pre-sized bitmap, zero
# allocations for a selective gather of delta, bit-packed and
# dictionary-RLE chunks into a pre-sized destination (pages decode into
# pooled scratch, not a fresh slice per page), and the filter walk's decode
# primitive allocating no more on an 8-page chunk than on a 1-page one, for
# a delta and a plain-int decode-first leaf (its values land in the
# worker's buffers).
guard-obs:
	$(GO) test -count=1 -run 'TestCountAllocsBounded|TestQueryRecorderConstantAllocOverhead|TestSinkAllocsPerMorselBounded|TestRelMorselBytesPerRowGroupBounded' .
	$(GO) test -count=1 -run 'TestDecompressIntoAllocFree' ./internal/xcompress/
	$(GO) test -count=1 -run 'TestScanKernelsAllocFree' ./internal/sboost/
	$(GO) test -count=1 -run 'TestGatherAllocFree' ./internal/colstore/
	$(GO) test -count=1 -run 'TestDecodeLeafAllocsFlatInPages' ./internal/ops/

# race-pipeline focuses the race detector on the morsel executor: the
# worker-local-state scheduler tests and the pipeline ≡ naive-scan
# property, IO acceptance, and trace tests, the two bound-leaf
# Explain ≡ kernel cases (signed data, INT64 DICTIONARY_RLE), and the one
# page walk of every leaf kind and encoding against a naive
# decode-and-test.
race-pipeline:
	$(GO) test -race -count=1 -run TestParallelMorsels ./internal/exec/
	$(GO) test -race -count=1 -run TestLeafWalkMatchesNaive ./internal/ops/
	$(GO) test -race -count=1 -run 'TestPipeline|TestExplainAnalyze|TestExplainSigned|TestExplainDictRLE|TestTracedGatherSpans' .

# race-prefetch focuses the race detector on the page fetcher: concurrent
# queries with mid-scan cancellation sharing the prefetch machinery, the
# prefetch-on ≡ prefetch-off equivalence property, the fault-injection
# fallback tests over scheduled and demand units, the walk's reads in
# flight (at least two, at most its depth), the one-read-per-chunk-stage
# count behind a page cache smaller than the table, the bound leaf's
# schedule ≡ kernel reads property the prefetcher relies on, and the page
# cache the fetcher consults (its insertion policy and concurrent use).
race-prefetch:
	$(GO) test -race -count=1 -run 'TestPrefetch|TestColdReads' .
	$(GO) test -race -count=1 -run 'TestBoundLeafScheduleMatchesReads' ./internal/ops/
	$(GO) test -race -count=1 -run 'TestPrefetch|TestPageCache' ./internal/colstore/

# race-serve focuses the race detector on the serving layer: admission
# control (concurrent acquire/release/timeout/cancel against the
# round-robin dispatcher), the wave batcher (concurrent clients group-
# committing onto shared scans), the result cache, and the root wave /
# exec-options / page-cache API tests.
race-serve:
	$(GO) test -race -count=1 ./internal/serve/
	$(GO) test -race -count=1 -run 'TestWave|TestEpoch|TestWithExec|TestPageCacheOption' .

# race-join focuses the race detector on the relational executor: the
# join table (direct and hashed) against its nested-loop oracle, the
# join/group/sort stages and sinks, the narrowed row basis against a
# decode-first reference, members of one pass against their solo runs,
# the relq builder against its nested-loop references (the whole
# package, so every build-side test — TestJoinCompositeKey,
# TestJoinGroupBuildSide, TestJoinEmptyBuildSide,
# TestJoinBuildSideFailsAlone — runs here), the engine-compiled ≡
# oblivious equivalence suites for TPC-H and SSB, and the public
# relational Query API (joins under every terminal, order-by/limit, trace
# spans).
race-join:
	$(GO) test -race -count=1 -run 'TestHashJoin|TestJoinTable|TestRel|TestRunWave' ./internal/ops/
	$(GO) test -race -count=1 ./internal/relq/
	$(GO) test -race -count=1 -run 'TestEngineMatchesOblivious' ./internal/tpch/ ./internal/ssb/
	$(GO) test -race -count=1 -run 'TestQueryJoin|TestQuerySemiAnti|TestQueryRows|TestScalarTerminals|TestJoinWithEmptyBuildSide|TestAggRowsOverNoRows|TestExplainAnalyzeRel|TestTracedTopK' .

# crash runs the write-path fault-injection suite under the race
# detector: the crash-point matrix (every write-side filesystem
# operation fails in turn; recovery must restore exactly the acked
# state), the double-crash variant (a second crash during the recovery
# flush), and the shard-layer WAL/manifest/quarantine tests.
crash:
	$(GO) test -race -count=1 -run 'TestCrashPointMatrix|TestCrashMatrixDoubleCrash|TestIngest' .
	$(GO) test -race -count=1 ./internal/shard/ ./internal/wal/ ./internal/memtable/

# check-run-patterns fails when a -run (or -bench / -fuzz) pattern in this
# Makefile, or one of its `|` alternatives, lists no test under
# `go test -list` for the package(s) it runs: a renamed or deleted test
# must not leave a gate that silently runs nothing.
check-run-patterns:
	GO=$(GO) bash scripts/check_run_patterns.sh Makefile

# bench runs the repository's benchmark (bench/README.md): all five
# workloads, every result checked, every metric printed by name.
bench:
	bash bench/run.sh --workload all

# bench-smoke vets and tests the benchmark module at toy scale. bench/ is
# a module of its own, so `go test ./...` from the root never reaches it;
# this is what keeps it compiling against the engine's internal packages.
bench-smoke:
	(cd bench && $(GO) vet ./... && $(GO) test ./...)

# bench-planner-smoke runs one iteration of each planner pipeline
# benchmark (they self-check counts, so this doubles as a correctness
# gate in check), of each SBoost kernel benchmark (ns/row per width and
# kernel), of the join-table probe benchmark (ns per probe, direct and
# hashed layouts, 1k and 75k keys, 0/50/100% hits), of the bulk unpack
# kernel (ns/value at widths 1 to 64) and of the chunk gathers (ns/row of
# GatherInts/GatherKeys/GatherFloats per encoding, 1/30/100% selected).
bench-planner-smoke:
	$(GO) test -run xxx -bench BenchmarkPlannerPipeline -benchtime 1x .
	$(GO) test -run xxx -bench BenchmarkScanKernels -benchtime 1x ./internal/sboost/
	$(GO) test -run xxx -bench BenchmarkJoinProbe -benchtime 1x ./internal/ops/
	$(GO) test -run xxx -bench BenchmarkUnpack -benchtime 1x ./internal/bitutil/
	$(GO) test -run xxx -bench BenchmarkGather -benchtime 1x ./internal/colstore/

# serve-demo loads a TPC-H sample into ./demodb and serves /metrics,
# /debug/vars, and /debug/pprof on :8080 until interrupted.
serve-demo:
	$(GO) run ./cmd/datagen -kind tpch -sf 0.01 -out ./demodb
	$(GO) run ./cmd/codecdb serve -db ./demodb -metrics :8080 -warm

# fuzz gives the colstore Open fuzzer, the two page decompressor fuzzers
# (gzip differential against compress/gzip, snappy), the selected-entry
# gather and the bulk unpack (both differential against bitutil.Reader),
# the SBoost scan kernels (differential against the scalar reference) and
# the join table (both layouts, against a map from key to build rows) a
# short budget each; extend FUZZTIME for longer campaigns. FuzzOpen's inputs are whole files, and
# shrinking one new input for the default minimize time (60 s) used up the
# whole budget, so it shrinks each for at most 100 runs.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/colstore/ -run xxx -fuzz FuzzOpen -fuzztime $(FUZZTIME) -fuzzminimizetime 100x
	$(GO) test ./internal/bitutil/ -run xxx -fuzz FuzzGatherSelected -fuzztime $(FUZZTIME)
	$(GO) test ./internal/bitutil/ -run xxx -fuzz FuzzAppendUnpacked -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xcompress/ -run xxx -fuzz FuzzGzipDecompress -fuzztime $(FUZZTIME)
	$(GO) test ./internal/xcompress/ -run xxx -fuzz FuzzSnappyDecompress -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sboost/ -run xxx -fuzz FuzzScanKernels -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ops/ -run xxx -fuzz FuzzJoinTable -fuzztime $(FUZZTIME)

# loc prints the line counts every simplicity PR states its delta in:
# non-test Go lines of the root package, of internal/ops, of internal/sboost,
# of internal/serve, of internal/colstore, of internal/obs, and of the repo
# outside bench/.
loc:
	@printf 'root package, non-test Go lines: '; cat $$(ls *.go | grep -v _test.go) | wc -l
	@printf 'internal/ops, non-test Go lines: '; cat $$(ls internal/ops/*.go | grep -v _test.go) | wc -l
	@printf 'internal/sboost, non-test Go lines: '; cat $$(ls internal/sboost/*.go | grep -v _test.go) | wc -l
	@printf 'internal/serve, non-test Go lines: '; cat $$(ls internal/serve/*.go | grep -v _test.go) | wc -l
	@printf 'internal/colstore, non-test Go lines: '; cat $$(ls internal/colstore/*.go | grep -v _test.go) | wc -l
	@printf 'internal/obs, non-test Go lines: '; cat $$(ls internal/obs/*.go | grep -v _test.go) | wc -l
	@printf 'repo outside bench/, non-test Go lines: '; find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l
