GO ?= go
BENCH_DATE := $(shell date +%Y-%m-%d)

.PHONY: build test vet race racecheck alloccheck rangecheck loadcheck churncheck clustercheck tracecheck benchbuild benchsmoke check bench loadbench benchcmp fuzz-smoke

# Each fuzz target gets a short smoke budget; go test allows only one
# -fuzz pattern per invocation, so targets run sequentially.
FUZZTIME ?= 10s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# racecheck reruns the concurrency-heavy packages — the sharded pool, its
# metrics adapter and the server's chaos drives (fault injection and the
# concurrent GET/DELETE/expiry churn drive) — under the race detector
# with fresh state each time, to shake out order-dependent interleavings
# a single pass can miss. `race` already covers every package once.
racecheck:
	$(GO) test -race -count=2 ./internal/shard ./internal/obs ./cmd/cacheserver

# alloccheck asserts the allocation guarantees: with no observer installed,
# core.Cache.Request allocates nothing on hits or on cold misses (every
# per-clip table is sized from the repository up front; an attached
# observer adds nothing either), in an eviction-heavy steady state the
# indexed victim-selection paths and IGD's heap search allocate nothing per
# Victims call and a whole evicting Cache.Request under IGD on the
# 20,004-clip repository allocates nothing, and the shard pool's
# published-view hit allocates nothing while its Request, RequestRange and
# one-item RequestBatch stay within fixed per-call budgets.
alloccheck:
	$(GO) test -run 'TestRequestZeroAllocsNilObserver|TestRequestAllocsUnchangedWithObserver|TestVictimsZeroAllocsSteadyState|TestRequestZeroAllocsEvictingSteadyState' -count=1 ./internal/core
	$(GO) test -run 'TestPoolRequestAllocs' -count=1 ./internal/shard

# rangecheck runs the partial-content conformance surface: the HTTP Range
# suite (206/200/416, HEAD, extents), the segmented engine and pool tests,
# and the per-segment byte-identity property under faults.
rangecheck:
	$(GO) test -run 'Range|Segment|HeadClip|Extents|Coalescing' -count=1 ./internal/core ./internal/shard ./cmd/cacheserver

# loadcheck is the open-loop load smoke: a short fixed-seed loadgen run
# (in-process pool, batched arrivals, 10% fault profile) that must sustain
# nonzero throughput and leave the engine statistics satisfying the
# counting and byte identities.
loadcheck:
	$(GO) run ./cmd/loadgen -check

# churncheck runs the catalog-churn conformance surface: the churn grammar
# and generator, the invalidation/TTL property suite over every registry
# policy, the 1-shard-equals-bare differential with TTL, the DELETE route
# and its client fallback, and the churn experiment's determinism.
churncheck:
	$(GO) test -run 'Churn|Invalidate|TTL|Expir|Delete' -count=1 \
		./internal/workload ./internal/core ./internal/shard \
		./internal/sim ./internal/cacheclient ./cmd/cacheserver

# clustercheck runs the cooperative-tier conformance surface under the race
# detector: the consistent-hash ring, digest verdicts, hedged peer reads,
# the retry/breaker client (incl. Retry-After parsing), snapshot rebalance
# across shard counts, the cooperative in-process model's fault accounting,
# and the multi-node chaos drive (node loss + partition + slow peers).
clustercheck:
	$(GO) test -race -run 'Cluster|Ring|Digest|Hedge|RetryAfter|Rebalance|Coop|UnionCoverage|PartialPeer|Degraded' -count=1 \
		./internal/cluster ./internal/cacheclient ./internal/shard \
		./internal/coop ./cmd/cacheserver

# tracecheck runs the sessionized-analytics conformance surface (ISSUE 10):
# the trace v2 schema round-trips and golden bytes, the Source-face
# byte-identity regressions, the query engine goldens, the traceql CLI, and
# the measure→model→replay loop — reqlog → traceql -fit → replay matching
# the recorded per-session hit rate and inter-arrival percentiles.
tracecheck:
	$(GO) test -run 'Source|Trace|Session|Query|Report|Fit|ReqLog|ClientID|Golden' -count=1 \
		./internal/workload ./internal/trace ./internal/sim \
		./cmd/traceql ./cmd/tracegen ./cmd/loadgen ./cmd/cacheserver

# benchbuild vets and builds the benchmark program. perfbench/ is a module
# of its own (it imports this one through a replace directive), so
# ./... above never reaches it; without this target a change to an API the
# benchmark calls could leave it broken while every other gate stays green.
# The binary is discarded.
benchbuild:
	cd perfbench && GOWORK=off GOFLAGS= $(GO) vet ./...
	cd perfbench && GOWORK=off GOFLAGS= $(GO) build -o /dev/null .

# benchsmoke runs each root victim-selection benchmark once, so that a
# change that breaks one (a panic, a failed decision check in its set-up)
# fails here rather than only under `make bench`; `go test` alone compiles
# benchmarks but never runs them.
benchsmoke:
	$(GO) test -run '^$$' -bench 'IGDSelection|EvictionHeavy|IGDAging|LRUSKSelection' -benchtime=1x .

# check is the tier-1 gate plus static analysis, the race detector, the
# request-path allocation assertion, the Range-conformance surface, the
# open-loop load smoke, the catalog-churn surface, the cooperative cluster
# surface, the sessionized-analytics surface, the benchmark build and the
# selection-benchmark smoke. vet and test cover every package, including
# internal/metrics and internal/obs.
check: build vet test race alloccheck rangecheck loadcheck churncheck clustercheck tracecheck benchbuild benchsmoke

# bench runs the full benchmark suite and archives the run as test2json
# events (one dated file per day; reruns overwrite).
bench:
	$(GO) test -run '^$$' -bench=. -benchmem -json . | tee BENCH_$(BENCH_DATE).json

# loadbench sweeps the open-loop generator across offered rates and
# archives the latency table next to the benchmark archives (the -load
# suffix keeps it from clobbering the same-day `make bench` file).
LOADRATES ?= 2000,10000,50000,200000
loadbench:
	$(GO) run ./cmd/loadgen -rates $(LOADRATES) -duration 2s -batch 8 -error-rate 0.05 \
		-json BENCH_$(BENCH_DATE)-load.json

# benchcmp summarizes the newest archived run (baseline-vs-indexed speedup
# table), or compares two archives: make benchcmp OLD=BENCH_a.json NEW=BENCH_b.json
BENCHFILE ?= $(lastword $(sort $(wildcard BENCH_*.json)))
benchcmp:
	$(GO) run ./cmd/benchcmp $(if $(OLD),$(OLD) $(NEW),$(BENCHFILE))

# fuzz-smoke gives every fuzz target a short randomized shake-out beyond
# its checked-in seed corpus. CI runs this on every push.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzParseChurn$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzReadRepositoryCSV$$' -fuzztime $(FUZZTIME) ./internal/media
	$(GO) test -run '^$$' -fuzz '^FuzzParseProfile$$' -fuzztime $(FUZZTIME) ./internal/fault
	$(GO) test -run '^$$' -fuzz '^FuzzParseFit$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzParseQuery$$' -fuzztime $(FUZZTIME) ./internal/trace
