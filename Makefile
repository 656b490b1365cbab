GO ?= go

.PHONY: all build vet test race verify bench chaos soak fleet-soak bench-durability ring-chaos bench-ring matrix-smoke store-chaos perfbench-check fuzz-smoke

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-check the subsystems with real concurrency: replay/logging,
# the VM, the parallel slicing engine (plus its dual-slice consumer),
# the shared LRU caches, and the coordinator/worker fleet.
race:
	$(GO) test -race ./internal/pinplay/... ./internal/vm/... ./internal/slice/... ./internal/dualslice/... ./internal/lru/... ./internal/fleet/...

# Tier-1 verify (see ROADMAP.md).
verify: build vet test race

# Regenerate BENCH_slice.json (parallel slicing engine benchmark).
bench:
	$(GO) run ./cmd/drbench -experiment slicebench -workers 4

# Crash-injection suite under the race detector: torn files at every
# section boundary, injected tracer panics, stalled replays, persistent
# divergence — every fault must end in recovery or a typed error.
chaos:
	$(GO) test -race -count=1 ./internal/faultinject/... ./internal/supervisor/...

# Chaos soak against a live session daemon under the race detector:
# 32 concurrent clients, scheduled tracer panics/stalls, corrupt and
# tampered pinballs, quota violations, a breaker short-circuit phase and
# a graceful drain. SOAK_REQS scales the per-client request count.
SOAK_REQS ?= 12
soak:
	DRDEBUG_SOAK_REQS=$(SOAK_REQS) $(GO) test -race -count=1 -run TestChaosSoak -v ./internal/sessiond/

# Multi-process fleet chaos soak: a real drserved coordinator fronting
# three real drserved workers, 100 concurrent clients, one worker
# SIGKILLed and one SIGSTOPped mid-run. Every accepted request must end
# in a typed response and every completed slice must be bit-identical
# (by digest) to a single-node daemon's answer. FLEET_SOAK_REQS scales
# the per-client request count.
FLEET_SOAK_REQS ?= 3
fleet-soak:
	DRDEBUG_SOAK_REQS=$(FLEET_SOAK_REQS) $(GO) test -race -count=1 -run TestFleetChaosSoak -v ./internal/fleet/

# Regenerate BENCH_durability.json (crash-safe write overhead).
bench-durability:
	$(GO) run ./cmd/drbench -experiment durbench

# Flight-recorder chaos under the race detector: ring eviction and
# gap-bridging differential tests, tampered window hashes and resume
# recipes (every policy must yield a typed degraded outcome, never a
# clean exit), plus the ring scenario matrix (exact bridges, provenance
# slicing, ring fault rows).
ring-chaos:
	$(GO) test -race -count=1 -run 'Ring|Bridge|Gap' ./internal/pinplay/... ./internal/pinball/... ./internal/faultinject/... ./internal/core/... ./internal/slice/...
	$(GO) run -race ./cmd/drmatrix run -json ring-grid.json scenarios/ring.yaml

# Content-addressed store chaos under the race detector: the store
# corruptor matrix (bit-flipped chunk, torn manifest tail, dangling
# index entry, duplicate-digest collision — each caught as its declared
# typed sentinel; grid artifact written to store-grid.json), the store
# and spool-cache unit suites, then the multi-process GC-under-load
# soak: a coordinator over three stored workers, digest-only clients,
# one worker SIGKILLed mid-fetch, one object corrupted under load and
# GC running concurrently. STORE_SOAK_REQS scales the soak.
STORE_SOAK_REQS ?= 3
store-chaos:
	DRDEBUG_STORE_GRID=$(CURDIR)/store-grid.json $(GO) test -race -count=1 -run 'TestStore' -v ./internal/faultinject/
	$(GO) test -race -count=1 ./internal/store/ ./internal/lru/
	DRDEBUG_SOAK_REQS=$(STORE_SOAK_REQS) $(GO) test -race -count=1 -run TestStoreChaosSoak -v ./internal/fleet/

# Regenerate BENCH_ring.json (flight-recorder ring overhead).
bench-ring:
	$(GO) run ./cmd/drbench -experiment ringbench

# Bounded scenario-matrix smoke under the race detector: the Table 1
# bug kernels explored by Maple across 8 seeds each, with replay and
# slice-closure assertions, plus the matrix engine's own determinism
# tests. Writes the grid artifact to matrix-grid.json for CI upload.
matrix-smoke:
	$(GO) test -race -count=1 ./internal/matrix/
	$(GO) run -race ./cmd/drmatrix run -q -json matrix-grid.json scenarios/table1.yaml

# Vet and test the benchmark module. perfbench/ is a Go module of its
# own (it imports this one through a replace directive), so the root
# build never compiles it: an API change here can break the benchmark
# silently without this check.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Bounded fuzz of the pinball reader: FuzzDecode runs every input
# through Decode and SalvageBytes, which must return a typed error or a
# valid pinball and never panic. Crashers land in
# internal/pinball/testdata/fuzz/ and are replayed by plain go test.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=15s ./internal/pinball/
