GO ?= go

.PHONY: all build test race bench bench-json bench-guard bench-check loc stress fuzz chaos lint check repro examples fmt fmt-check vet clean

# How long each fuzzer runs under `make fuzz` / `make check`.
FUZZTIME ?= 10s

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable reports for the replication benches: runs the
# batching/coalescing/counting/sharding/repair benchmarks and converts the
# output to BENCH_*.json via cmd/benchjson. CI smoke-runs this with
# BENCHTIME=1x SHARDTIME=50x; use the defaults for numbers worth
# comparing. The shard-scaling bench gets its own iteration count
# because each op is a deliberate 1ms I/O sleep — 100x would be all
# startup noise, and the default 1000x still finishes in seconds.
BENCHTIME ?= 100x
SHARDTIME ?= 1000x
# 2000x, five times: with a ship window per pipe the SyncShip arms run
# eight writers, their shippers and the target on this box's two CPUs,
# and single 2000x runs of one arm read 4300-5200 writes/s. The report
# keeps the median of five; the guard holds the best of five against it
# (see cmd/benchjson), as for the kernels.
HOTTIME ?= 2000x
HOTCOUNT ?= 5
DEDUPETIME ?= 20x
# The CPU-bound kernel benches (50 ns to 50 us per op, no sleep in the
# loop) run KERNELTIME iterations five times; benchjson records the
# median with min and max. At 2000x a 512-byte hash is a 0.1 ms
# measurement; at 100000x the medians of five repeat within a few
# percent on a quiet host, and the best of five within a few percent
# even while a neighbour is busy, which is what the guard compares.
KERNELTIME ?= 100000x
HOTKERNELS = HotpathEncode|HotpathHash|HotpathZRL|HotpathXOR|HotpathApply
bench-json:
	$(GO) test -run='^$$' -bench='BatchShip|AblationCoalesce|AblationSqueeze' -benchtime=$(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -out BENCH_batch.json
	$(GO) test -run='^$$' -bench='NonZeroBytes' -benchtime=$(KERNELTIME) -count=5 ./internal/parity \
		| $(GO) run ./cmd/benchjson -out BENCH_nonzero.json
	$(GO) test -run='^$$' -bench='ShardScaling' -benchtime=$(SHARDTIME) . \
		| $(GO) run ./cmd/benchjson -out BENCH_shard.json
	{ $(GO) test -run='^$$' -bench='HotpathSyncShip' -benchtime=$(HOTTIME) -count=$(HOTCOUNT) . && \
	  $(GO) test -run='^$$' -bench='$(HOTKERNELS)|HotpathShards' -benchtime=$(KERNELTIME) -count=5 . ; } \
		| $(GO) run ./cmd/benchjson -out BENCH_hotpath.json
	{ $(GO) test -run='^$$' -bench='GroupRepair' -benchtime=$(BENCHTIME) . && \
	  $(GO) test -run='^$$' -bench='Resync/t3-ranges' -benchtime=$(BENCHTIME) -count=5 . ; } \
		| $(GO) run ./cmd/benchjson -out BENCH_repair.json
	$(GO) test -run='^$$' -bench='Dedupe' -benchtime=$(DEDUPETIME) . \
		| $(GO) run ./cmd/benchjson -out BENCH_dedupe.json

# Performance regression guards (see cmd/benchjson guard mode):
#   - hotpath: writes/s must not fall more than REGRESS percent below
#     the committed BENCH_hotpath.json (best of five runs against the
#     baseline's median). Only the SyncShip benches are compared; the
#     CPU-bound shard benches swing too much run to run.
#   - kernels: MB/s of the single-goroutine encode, hash, ZRL, XOR and
#     replica-apply benches (best of five runs against the baseline's
#     median) must not fall more than REGRESS percent below
#     BENCH_hotpath.json — the CPU-bound guard.
#   - repair: chain-repair wire bytes (lower is better, hence -lower)
#     must not rise more than REGRESS percent above BENCH_repair.json.
#   - resync: the wall time of a ranged resync behind a shaped T3 link
#     (repair-ms of Resync/t3-ranges, lower is better; best of five
#     against the baseline's median) must not rise more than REGRESS
#     percent above BENCH_repair.json. Of its ~19 ms, 12 are the token
#     bucket passing 55 KiB and 4 are two link latencies, both sleeps, so
#     repeats agree within 3 percent; one more serialized round trip is
#     2 ms, 11 percent, and fails the guard.
#   - dedupe: the by-ref wire-savings ratio (savedx) must not fall more
#     than REGRESS percent below BENCH_dedupe.json.
#   - squeeze: the mean frame a squeezing shipper puts on the wire
#     (frameB of AblationSqueeze, lower is better) must not rise more
#     than 1 percent above BENCH_batch.json. It is a count over a seeded
#     corpus, the same on every host, so the tolerance only has to cover
#     the four digits `go test` prints.
REGRESS ?= 10
bench-guard:
	$(GO) test -run='^$$' -bench='HotpathSyncShip' -benchtime=$(HOTTIME) -count=$(HOTCOUNT) . \
		| $(GO) run ./cmd/benchjson -baseline BENCH_hotpath.json \
			-metric writes/s -max-regress $(REGRESS)
	$(GO) test -run='^$$' -bench='$(HOTKERNELS)' -benchtime=$(KERNELTIME) -count=5 . \
		| $(GO) run ./cmd/benchjson -baseline BENCH_hotpath.json \
			-metric MB/s -max-regress $(REGRESS)
	$(GO) test -run='^$$' -bench='GroupRepair' -benchtime=$(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -baseline BENCH_repair.json \
			-metric wireB -lower -max-regress $(REGRESS)
	$(GO) test -run='^$$' -bench='Resync/t3-ranges' -benchtime=$(BENCHTIME) -count=5 . \
		| $(GO) run ./cmd/benchjson -baseline BENCH_repair.json \
			-metric repair-ms -lower -max-regress $(REGRESS)
	$(GO) test -run='^$$' -bench='Dedupe' -benchtime=$(DEDUPETIME) . \
		| $(GO) run ./cmd/benchjson -baseline BENCH_dedupe.json \
			-metric savedx -max-regress $(REGRESS)
	$(GO) test -run='^$$' -bench='AblationSqueeze' -benchtime=$(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -baseline BENCH_batch.json \
			-metric frameB -lower -max-regress 1

# The sharded-engine and multi-volume concurrency battery, repeated
# under the race detector: cross-shard parallel writers, same-LBA
# ordering, randomized crash/heal invariants, mid-batch chaos, volume
# lifecycle and shared-session isolation, the multiplexed replica
# session (out-of-order responses, whole PDUs under concurrent senders,
# reset/timeout/Close with commands in flight), the ship window
# (overlapping pushes landed out of order, the same-LBA and span
# admission rules, the replica's sliding seq window), and the shipper's
# squeeze (the gate on synthetic links, a squeezed run through coalesce
# and a refused reference, TPC-C over a shaped T1 link), the pipelined
# resync (the differential test against the serial oracle, cancel,
# reset and Stop with a window of writes in flight, the window bounds,
# one redial for a window of fetches), and the window type all three
# windows share (its bounds, handback on the owner, drain).
STRESSCOUNT ?= 3
stress:
	$(GO) test -race -count=$(STRESSCOUNT) -run 'Shard|Volume|Group|Session|Window|Squeeze|Resync' ./internal/core ./internal/iscsi ./internal/xcode ./internal/resync ./internal/window .

# Short fuzz passes over the wire-facing decoders, the frame walker's
# decode-into and XOR-into forms (differential against Decode) and the
# ZRL encoder (differential against its bytewise oracle), seeded from the
# checked-in corpora (regenerate with PRINS_REGEN_CORPUS=1 go test
# -run TestRegenerateFuzzCorpus ./internal/core).
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzReadPDU$$' -fuzztime=$(FUZZTIME) ./internal/iscsi
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeBatch$$' -fuzztime=$(FUZZTIME) ./internal/iscsi
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeStripe$$' -fuzztime=$(FUZZTIME) ./internal/iscsi
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeByRef$$' -fuzztime=$(FUZZTIME) ./internal/iscsi
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSnapshot$$' -fuzztime=$(FUZZTIME) ./internal/dedupe
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/xcode
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeInto$$' -fuzztime=$(FUZZTIME) ./internal/xcode
	$(GO) test -run='^$$' -fuzz='^FuzzZRLEncode$$' -fuzztime=$(FUZZTIME) ./internal/xcode

# The fault-injection suites under the race detector: connection and
# store chaos, torn-write journal recovery, divergence detection and
# dirty-range repair, resync cancellation, scrubbing, and the group
# replica-kill / chain-repair drill.
chaos:
	$(GO) test -race -run 'Chaos|Torn|Diverged|Journal|Resync|Scrub|Fault' \
		./internal/core ./internal/faults ./internal/journal ./internal/resync .

# prinslint is the project's own invariant analyzer (see DESIGN.md,
# "Static analysis & invariants"): dropped I/O errors, parity aliasing,
# nondeterministic chaos machinery, racy counters, unguarded decodes.
lint:
	$(GO) run ./cmd/prinslint ./...

# bench/ is a module of its own, so the root `go vet ./...` and
# `go test ./...` do not see it: an internal API change would break the
# benchmark silently until the driver runs it.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The pre-merge gate, in the CI workflow's order: formatting, static
# analysis, the full suite under the race detector, the benchmark
# module, then a short fuzz of the decoders.
check: fmt-check vet lint race bench-check fuzz

# Non-test code lines (blank and comment-only lines excluded) of the
# packages the replication and recovery paths live in, counted together
# so that moving code between them reads as no change.
loc:
	@cat $$(ls internal/core/*.go internal/iscsi/*.go internal/resync/*.go internal/window/*.go | grep -v _test.go) | grep -vcE '^\s*(//.*)?$$'

# Regenerate every figure of the paper's evaluation.
repro:
	$(GO) run ./cmd/prinsbench all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/tpcc
	$(GO) run ./examples/filesync
	$(GO) run ./examples/wansim
	$(GO) run ./examples/recovery
	$(GO) run ./examples/raidnode

fmt:
	gofmt -l -w .

# Fails, listing the files, when anything is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; }

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
