GO ?= go

.PHONY: build test tier1 fmt vet race chaos serve-smoke bench bench-smoke bench-e2e bench-e2e-test bench-ab bench-delaunay bench-cache bench-dist bench-march bench-field bench-partition placement fuzz loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 gate: everything builds and every test passes. The static guards
# are tests of the root package on one go/types load of the module
# (reach_test.go): nothing unreachable, no unset knob, no call to panic and
# no sync state passed by value in production code.
tier1: build test

# Every Go file is gofmt-clean; the target lists the ones that are not.
fmt:
	@files=$$(gofmt -l .); [ -z "$$files" ] || { echo "gofmt -l lists:"; echo "$$files"; exit 1; }

vet:
	$(GO) vet ./...

# Concurrency-sensitive packages (the MPI runtime, the pipeline's Phase 4
# executor with its chaos tests, the parallel render workers,
# concurrent point location, concurrent Field.At queries in dtfe, and the
# shared predicate counters and the tests' oracle switch in geom) under the
# race detector.
race:
	$(GO) test -race ./internal/mpi/... ./internal/pipeline/... ./internal/render/... ./internal/delaunay/... ./internal/dtfe/... ./internal/geom/... ./internal/fieldserve/... ./internal/fault/...

# Fault-injection and cancellation suites under the race detector: worker
# death mid-march and before a send, a pipeline rank dead in Phase 4 or
# before Phase 1, lost work packages, dropped/duplicated/malformed tile
# results, a lost tile handed back to the only worker, straggler
# re-dispatch, stale results, caller cancellation, tolerant receives, and
# collective attribution. The -timeout
# is the watchdog: a hang fails the run instead of wedging CI.
# The loop first prints how many tests the -run pattern selects in each
# package and fails on zero, so a renamed suite cannot silently drop out.
CHAOS_RUN  = Chaos|Fault|Crash|Straggler|Tolerant|Attribution|Cancel|Deadline
CHAOS_PKGS = ./internal/mpi ./internal/fault ./internal/pipeline ./internal/render/distrender ./internal/fieldserve
chaos:
	@for p in $(CHAOS_PKGS); do \
		n=$$($(GO) test -list '$(CHAOS_RUN)' $$p | grep -c '^Test'); \
		echo "chaos: $$p: $$n tests match"; \
		[ "$$n" -gt 0 ] || { echo "chaos: the -run pattern selects nothing in $$p"; exit 1; }; \
	done
	$(GO) test -race -timeout 180s -run '$(CHAOS_RUN)' $(CHAOS_PKGS)

# Overload smoke: the resident field service at 2x capacity under the
# race detector — bounded queue, shedding, degrade ladder, request
# conservation and the goroutine-leak check — the 80%-overlap
# coalescing storm, and one dtfe-serve run end to end, whose concurrent
# updater and open-loop client goroutines are raced with the service.
serve-smoke:
	$(GO) test -race -timeout 300s -run 'OverloadSmoke|OverlapStorm|RunPrintsSummary' ./internal/fieldserve/ ./cmd/dtfe-serve/

# One-iteration smoke over every benchmark in the tree: catches bit-rot
# in benchmark code without paying for stable timings. -short skips the
# 100k Delaunay builds, which take minutes even for one iteration.
bench-smoke:
	$(GO) test -short -run xxx -bench . -benchtime 1x ./...

# The repository's one end-to-end + per-layer benchmark (BENCHMARK.json,
# bench/e2e/README.md): every workload, five runs each, summary to
# bench/e2e/out/run.json. Compare two such files with
# `bash bench/e2e/run.sh -compare A.json B.json`. `make bench` is the same
# thing.
bench-e2e:
	bash bench/e2e/run.sh -all -runs 5 -out bench/e2e/out/run.json

bench: bench-e2e

# A/B of one workload: N alternated pairs of runs, revision PARENT against
# the working tree, then `-compare`'s verdict (bench/ab.sh).
PARENT ?= HEAD
W      ?= batch_build
N      ?= 5
bench-ab:
	bash bench/ab.sh $(PARENT) $(W) $(N)

# The Delaunay build's layer number: New on the clustered 10k and 100k
# catalogs, one pinned core, five counts (ns/point beside ns/op).
bench-delaunay:
	GOMAXPROCS=1 taskset -c 1 $(GO) test -run '^$$' -bench DelaunayBuildClustered -count 5 ./internal/delaunay/

# The column cache's layer number: colCache alone under the serve_overlap
# request stream (Zipf over 768 families, default budget), one pinned core,
# five counts (cold/req_col beside ns/op).
bench-cache:
	GOMAXPROCS=1 taskset -c 1 $(GO) test -run '^$$' -bench ColumnCacheZipf -count 5 ./internal/fieldserve/

# One distributed-render worker's setup on dist_grid's shape (20k
# clustered particles, 4 ranks): the whole mesh built from the catalog
# (build) against a worker's decode and build of its slab (slab), one
# pinned core, five counts (ns/point and B/worker beside ns/op).
bench-dist:
	GOMAXPROCS=1 taskset -c 1 $(GO) test -run '^$$' -bench WorkerSetup -count 5 ./internal/render/distrender/

# The march's layer number on batch_march's shape (12k clustered particles,
# 640 columns, lines through the whole z extent, the marcher built outside
# the timer), one pinned core, five counts (ns/step and steps/column beside
# ns/op).
bench-march:
	GOMAXPROCS=1 taskset -c 1 $(GO) test -run '^$$' -bench 'MarchPoolOrder/batch_march' -count 5 ./internal/render/

# The field march's layer number on dist_fields' shape (100k clustered
# particles, FieldLen 0.12, 64² grids, 40 halo-centred cubes built as an
# item builds them, outside the timer), one pinned core, five counts
# (ns/column and steps/column beside ns/op). The 10k case is what -short
# (`make bench-smoke`) runs.
bench-field:
	GOMAXPROCS=1 taskset -c 1 $(GO) test -run '^$$' -bench 'FieldMarch/100k' -count 5 ./internal/pipeline/

# Phase 1's layer numbers on dist_fields' shape (100k clustered particles,
# 4 ranks, FieldLen 0.12, 40 halo-centred fields): the exchange, every
# rank's cell index and the cube queries, one pinned core, five counts
# (ns/particle beside ns/op). The 100k case is skipped under -short.
bench-partition:
	GOMAXPROCS=1 taskset -c 1 $(GO) test -run '^$$' -bench 'Partition/100k' -count 5 ./internal/pipeline/

# Where the march's hot functions and the harness's reference kernel sit in
# the e2e binary: each one's address and that address mod 64. The binary is
# built as bench/e2e/run.sh builds it, into .bench_build/. A change that
# resizes a package linked before them moves them, and an offset that moves
# mod 64 has shifted batch_march and the normalised op_ms by a few per cent
# with no code of theirs changed; compare both sides of an A/B. Like
# bench/ab.sh it builds without VCS stamps, so a git checkout and an
# unpacked archive of the same revision link alike.
PLACEMENT_ENV  = GOCACHE=$(CURDIR)/.bench_build/go-cache GOTMPDIR=$(CURDIR)/.bench_build/tmp GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
PLACEMENT_SYMS = 'godtfe/internal/render.(*Marcher).tryColumn' 'godtfe/internal/render.(*Marcher).marchFrom' \
	'godtfe/internal/render.(*entryIndex).find' 'godtfe/internal/render.exitVerticalVerts' 'main.refPass'
placement:
	@mkdir -p .bench_build/tmp
	@$(PLACEMENT_ENV) $(GO) -C bench/e2e build -o $(CURDIR)/.bench_build/e2e .
	@nm=$$($(PLACEMENT_ENV) $(GO) tool nm .bench_build/e2e); \
	for s in $(PLACEMENT_SYMS); do \
		a=$$(printf '%s\n' "$$nm" | awk -v s="$$s" '$$2 == "T" && $$3 == s { print $$1 }'); \
		[ -n "$$a" ] || { echo "placement: $$s is not in the binary"; exit 1; }; \
		printf '%-44s 0x%s %2d\n' "$$s" "$$a" $$((0x$$a % 64)); \
	done

# The harness's own self-test (about 3 s). bench/e2e is a module of its
# own, so `go test ./...` from the root does not reach it.
bench-e2e-test:
	$(GO) -C bench/e2e test .

# Fuzz smoke: a short budget per target keeps CI fast while still
# exercising the mutation engine against the typed-error contracts.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParticleIO -fuzztime 10s ./internal/particleio/
	$(GO) test -run '^$$' -fuzz FuzzDelaunayInsert -fuzztime 10s ./internal/delaunay/
	$(GO) test -run '^$$' -fuzz FuzzDelaunayDelta -fuzztime 10s ./internal/delaunay/
	$(GO) test -run '^$$' -fuzz FuzzCodecDecode -fuzztime 10s ./internal/mpi/
	$(GO) test -run '^$$' -fuzz FuzzTreeWireDecode -fuzztime 10s ./internal/render/distrender/
	$(GO) test -run '^$$' -fuzz FuzzFloorStart -fuzztime 10s ./internal/render/
	$(GO) test -run '^$$' -fuzz FuzzPredicatesExact -fuzztime 10s ./internal/geom/
	$(GO) test -run '^$$' -fuzz FuzzHilbertOrder -fuzztime 10s ./internal/geom/
	$(GO) test -run '^$$' -fuzz FuzzFOF -fuzztime 10s ./internal/halo/

# Line counts of every .go file outside the benchmark harness: production
# (non-test files), the one number ROADMAP's "fewer production lines" target
# and the simplicity PRs' before/after figures quote, and test (_test.go).
LOC_FILES = find . -name '*.go' -not -path './bench/*' -not -path './.bench_build/*'
loc:
	@echo "production $$($(LOC_FILES) ! -name '*_test.go' -exec cat {} + | wc -l)"
	@echo "test       $$($(LOC_FILES) -name '*_test.go' -exec cat {} + | wc -l)"

ci: tier1 fmt vet race chaos serve-smoke bench-smoke bench-e2e-test fuzz
