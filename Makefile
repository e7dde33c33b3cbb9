# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test race check chaos lint bench-module cover bench telemetry-smoke recovery-smoke contention-smoke freshness-smoke fuzz experiments shapes examples clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Seeded chaos suite (docs/FAULTS.md): every engine over the
# reliable-delivery sublayer and the fault injector, under the race
# detector.
chaos:
	$(GO) test -race -run 'TestChaos|TestReliable|TestBackEdgeRecovers' -count 1 ./internal/cluster ./internal/comm ./internal/core ./internal/fault

# The repository's own analyzer suite (docs/STATIC_ANALYSIS.md): five
# protocol-invariant checks that go vet cannot express.
lint:
	$(GO) run ./cmd/repllint ./...

# The repo benchmark (BENCHMARK.json) is a Go module of its own under
# benchmark/, so the root `./...` patterns never compile it; vet and test
# it here so an internal/ API change cannot silently break it.
bench-module:
	cd benchmark && $(GO) vet . && $(GO) test .

# The pre-merge gate: compile, static checks, full test suite, the race
# detector, the chaos suite, the protocol-invariant lint, the nested
# benchmark module (the benchmark gate: its smoke test runs all six
# workloads), and the crash-recovery, contention- and
# freshness-observatory smokes.
check: build vet test race chaos lint bench-module recovery-smoke contention-smoke freshness-smoke

cover:
	$(GO) test -cover ./...

# One benchmark iteration per paper artifact plus the micro-benchmarks.
bench:
	$(GO) test -run NONE -bench . -benchmem -benchtime 1x ./...

# Cluster telemetry plane smoke (docs/OBSERVABILITY.md): two replnode
# processes stream telemetry over TCP to one repltop aggregator, whose
# -once -json snapshot must name both processes and their sites.
telemetry-smoke:
	./scripts/telemetry_smoke.sh

# Crash-recovery smoke (docs/DURABILITY.md): traced clusters run over
# per-site redo logs while a seeded schedule crashes a site; the -json
# counters must show the crash, the restart, and a nonzero redo replay.
recovery-smoke:
	./scripts/recovery_smoke.sh

# Contention-observatory smoke (docs/OBSERVABILITY.md): a seeded Zipfian
# hotspot run through `replbench -contend` must yield a non-empty heat
# table, a fully classified abort breakdown, a replexplain profile
# covering end-to-end latency within 5%, and byte-identical wait-for
# snapshots across same-seed runs.
contention-smoke:
	./scripts/contention_smoke.sh

# Freshness-observatory smoke (docs/OBSERVABILITY.md): a seeded lazy run
# through `replbench -fresh` must yield non-empty propagation waterfalls,
# certificate coverage of at least 95% of reads, stale certificates, and
# byte-identical canonical freshness summaries across same-seed runs.
freshness-smoke:
	./scripts/freshness_smoke.sh

FUZZTIME ?= 30s

fuzz:
	$(GO) test -fuzz FuzzCompareTotalOrder -fuzztime $(FUZZTIME) ./internal/ts
	$(GO) test -fuzz FuzzTimestampCompare -fuzztime $(FUZZTIME) ./internal/ts
	$(GO) test -fuzz FuzzBackedgeComputation -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -fuzz FuzzReliableReorder -fuzztime $(FUZZTIME) ./internal/comm
	$(GO) test -fuzz FuzzWALDecode -fuzztime $(FUZZTIME) ./internal/wal

# Regenerate every figure/table of the paper's evaluation (§5).
experiments:
	$(GO) run ./cmd/replbench -exp all -scale medium

# Mechanically assert the paper's shape claims (takes several minutes).
shapes:
	REPRO_SHAPES=1 $(GO) test ./internal/harness -run TestPaperShapes -v -timeout 30m

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/anomaly
	$(GO) run ./examples/warehouse
	$(GO) run ./examples/telecom

clean:
	$(GO) clean ./...
