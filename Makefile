GO ?= go

.PHONY: build test tier1 vet race chaos serve-smoke bench bench-smoke bench-e2e bench-e2e-test bench-ab fuzz loc ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 gate: everything builds and every test passes. The static guards
# are tests of the root package on one go/types load of the module
# (reach_test.go): nothing unreachable, no unset knob, no call to panic and
# no sync state passed by value in production code.
tier1: build test

vet:
	$(GO) vet ./...

# Concurrency-sensitive packages (the MPI runtime, the fault-tolerant
# pipeline executor with its chaos tests, the parallel render workers,
# concurrent point location, and the shared predicate counters/oracle
# switch in geom) under the race detector.
race:
	$(GO) test -race ./internal/mpi/... ./internal/pipeline/... ./internal/render/... ./internal/delaunay/... ./internal/geom/... ./internal/fieldserve/... ./internal/fault/...

# Fault-injection and cancellation suites under the race detector: worker
# death mid-march and before a send, dropped/duplicated/malformed frames,
# straggler re-dispatch, stale frames, caller cancellation, tolerant
# receives, and collective attribution. The -timeout
# is the watchdog: a recovery-path hang fails the run instead of wedging CI.
# The loop first prints how many tests the -run pattern selects in each
# package and fails on zero, so a renamed suite cannot silently drop out.
CHAOS_RUN  = Chaos|Fault|Recover|Crash|Straggler|Tolerant|Attribution|Cancel|Deadline
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
# conservation and the goroutine-leak check — and the 80%-overlap
# coalescing storm.
serve-smoke:
	$(GO) test -race -timeout 300s -run 'OverloadSmoke|OverlapStorm' ./internal/fieldserve/

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
	$(GO) test -run '^$$' -fuzz FuzzPredicatesExact -fuzztime 10s ./internal/geom/
	$(GO) test -run '^$$' -fuzz FuzzHilbertOrder -fuzztime 10s ./internal/geom/

# Production-line count: every non-test .go file outside the benchmark
# harness. The one number ROADMAP's "fewer production lines" target and the
# simplicity PRs' before/after figures quote.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs wc -l | tail -1

ci: tier1 vet race chaos serve-smoke bench-smoke bench-e2e-test fuzz
