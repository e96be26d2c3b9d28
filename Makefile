GO ?= go

.PHONY: all build test race bench bench-json bench-guard e2e-guard bench-check loc stress fuzz chaos lint check repro repro-check examples fmt fmt-check vet clean

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

# Records of the replication benches: runs the squeeze, counting,
# sharding, hot-path, repair and dedupe benchmarks and converts the
# output to BENCH_*.json via cmd/benchjson. The files are records of one
# host's run, not baselines: nothing compares against them (`make
# bench-guard` compares against the parent commit instead). CI
# smoke-runs this with BENCHTIME=1x SHARDTIME=50x HOTTIME=1x
# KERNELTIME=1x. The shard-scaling bench gets its own iteration count
# because each op is a deliberate 1ms I/O sleep — 100x would be all
# startup noise, and the default 1000x still finishes in seconds. The
# sync-ship arms run eight writers, their shippers and the target on a
# shared box, so they and the CPU-bound kernels (50 ns to 3 us per op,
# no sleep in the loop) run five times and benchjson records the median
# with min and max.
BENCHTIME ?= 100x
SHARDTIME ?= 1000x
HOTTIME ?= 2000x
DEDUPETIME ?= 20x
KERNELTIME ?= 100000x
HOTKERNELS = HotpathEncode|HotpathHash|HotpathZRL|HotpathXOR|HotpathApply
bench-json:
	$(GO) test -run='^$$' -bench='AblationSqueeze' -benchtime=$(BENCHTIME) . \
		| $(GO) run ./cmd/benchjson -out BENCH_batch.json
	$(GO) test -run='^$$' -bench='NonZeroBytes' -benchtime=$(KERNELTIME) -count=5 ./internal/parity \
		| $(GO) run ./cmd/benchjson -out BENCH_nonzero.json
	$(GO) test -run='^$$' -bench='ShardScaling' -benchtime=$(SHARDTIME) . \
		| $(GO) run ./cmd/benchjson -out BENCH_shard.json
	{ $(GO) test -run='^$$' -bench='HotpathSyncShip' -benchtime=$(HOTTIME) -count=5 . && \
	  $(GO) test -run='^$$' -bench='$(HOTKERNELS)' -benchtime=$(KERNELTIME) -count=5 . ; } \
		| $(GO) run ./cmd/benchjson -out BENCH_hotpath.json
	{ $(GO) test -run='^$$' -bench='GroupRepair' -benchtime=$(BENCHTIME) . && \
	  $(GO) test -run='^$$' -bench='Resync/t3-ranges' -benchtime=$(BENCHTIME) -count=5 . ; } \
		| $(GO) run ./cmd/benchjson -out BENCH_repair.json
	$(GO) test -run='^$$' -bench='Dedupe' -benchtime=$(DEDUPETIME) . \
		| $(GO) run ./cmd/benchjson -out BENCH_dedupe.json

# The performance regression guard: an A/B of the working tree against
# its parent commit — HEAD when the tree has uncommitted changes, HEAD~1
# otherwise — judged by bench/compare.go's rule (cmd/benchjson
# -compare). It builds both root test binaries, the parent's from a
# `git archive` export in a temporary directory, and times the arms
# whose speed is the point — the kernels' MB/s, HotpathSyncShip
# writes/s and Resync/t3-ranges repair-ms — in twenty pairs of single
# 50 ms runs. The two sides alternate arm by arm, the side that goes
# first swapping every pair, so a busy neighbour on a shared host slows
# both sides' samples of an arm alike. An arm whose change median is
# more than 10% worse than the parent's is a REGRESSION and fails the
# target; one whose parent runs spread wider than that (inter-quartile
# range over 10% of the median) is reported unresolved and passes,
# since the runs cannot tell a 10% shift from their own noise. Counts —
# frame sizes, repair wire bytes, dedupe savings — do not depend on
# timing and are tests, not guards.
bench-guard:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	if [ -n "$$(git status --porcelain)" ]; then parent=HEAD; else parent=HEAD~1; fi; \
	echo "bench-guard: the working tree against $$parent ($$(git rev-parse --short $$parent))"; \
	mkdir "$$tmp/parent"; git archive "$$parent" | tar -x -C "$$tmp/parent"; \
	(cd "$$tmp/parent" && $(GO) test -c -trimpath -o "$$tmp/parent.test" .); \
	$(GO) test -c -trimpath -o "$$tmp/change.test" .; \
	for pair in $$(seq 20); do \
		order="parent change"; [ $$((pair % 2)) = 1 ] || order="change parent"; \
		for arm in $(subst |, ,$(HOTKERNELS)) HotpathSyncShip Resync/t3-ranges; do \
			for side in $$order; do \
				"$$tmp/$$side.test" -test.run='^$$' -test.bench="$$arm" -test.benchtime=50ms \
					-test.timeout=1m >> "$$tmp/$$side.txt"; \
			done; \
		done; \
	done; \
	$(GO) run ./cmd/benchjson -compare "$$tmp/parent.txt" "$$tmp/change.txt"

# The end-to-end A/B: the benchmark itself (bench/run.sh), run on the
# working tree and on its parent commit (chosen and exported as
# bench-guard does) in PAIRS pairs per workload and seed, the side that
# goes first swapping every pair. Each run's result line, tagged with
# its workload and seed, goes to that side's file, and `benchjson -e2e`
# judges every end-to-end metric of BENCHMARK.json by the median of its
# per-pair change/parent ratios against the metric's bound, printing
# how many pairs the change won. A pair's two runs are back to back, so
# a host whose speed drifts between pairs slows both alike. Each run
# also builds its tree's benchmark first (bench/run.sh), which is not
# timed. The runs' own reports go to a log beside the result files.
WORKLOADS ?= sync-sparse-t3 async-dense-cpu tpcc-t1 tar-dedupe-outage-t3
SEEDS ?= 1
PAIRS ?= 3
SECONDS ?= 20
e2e-guard:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	if [ -n "$$(git status --porcelain)" ]; then parent=HEAD; else parent=HEAD~1; fi; \
	echo "e2e-guard: the working tree against $$parent ($$(git rev-parse --short $$parent))"; \
	mkdir "$$tmp/parent"; git archive "$$parent" | tar -x -C "$$tmp/parent"; \
	for pair in $$(seq $(PAIRS)); do \
		order="parent change"; [ $$((pair % 2)) = 1 ] || order="change parent"; \
		for w in $(WORKLOADS); do for s in $(SEEDS); do for side in $$order; do \
			dir=.; [ $$side = change ] || dir="$$tmp/parent"; \
			line=$$(cd "$$dir" && bash bench/run.sh --workload $$w --seed $$s --seconds $(SECONDS) --trace 0 2>>"$$tmp/$$side.log" | tail -n 1) || true; \
			echo "e2e-guard: pair $$pair $$side $$w seed $$s: $$line"; \
			echo "$$line" | sed "s/^{/{\"workload\":\"$$w\",\"seed\":$$s,/" >> "$$tmp/$$side.jsonl"; \
		done; done; done; \
	done; \
	$(GO) run ./cmd/benchjson -e2e "$$tmp/parent.jsonl" "$$tmp/change.jsonl"

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

# Short fuzz passes over the wire-facing decoders (the repair span's
# and the squeezed entry list's strict decoders included), the login codec, the frame walker's
# decode-into and XOR-into forms (differential against Decode), its
# mask form (differential against the XOR form of the same stream), the
# codecs' encode/decode round trip, the ZRL encoder (differential
# against its bytewise oracle) and the squeeze stream's rebuild of a
# segment against a primed history, seeded from the checked-in corpora
# (regenerate with PRINS_REGEN_CORPUS=1 go test -run
# TestRegenerateFuzzCorpus ./internal/core). Every Fuzz function in the
# tree is listed here: TestMakeFuzzListsEveryFuzzer fails otherwise.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzReadPDU$$' -fuzztime=$(FUZZTIME) ./internal/iscsi
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeBatch$$' -fuzztime=$(FUZZTIME) ./internal/iscsi
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeByRef$$' -fuzztime=$(FUZZTIME) ./internal/iscsi
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSpan$$' -fuzztime=$(FUZZTIME) ./internal/iscsi
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSqueezed$$' -fuzztime=$(FUZZTIME) ./internal/iscsi
	$(GO) test -run='^$$' -fuzz='^FuzzLoginPayloads$$' -fuzztime=$(FUZZTIME) ./internal/iscsi
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSnapshot$$' -fuzztime=$(FUZZTIME) ./internal/dedupe
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/xcode
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeInto$$' -fuzztime=$(FUZZTIME) ./internal/xcode
	$(GO) test -run='^$$' -fuzz='^FuzzMaskInto$$' -fuzztime=$(FUZZTIME) ./internal/xcode
	$(GO) test -run='^$$' -fuzz='^FuzzRoundTrip$$' -fuzztime=$(FUZZTIME) ./internal/xcode
	$(GO) test -run='^$$' -fuzz='^FuzzZRLEncode$$' -fuzztime=$(FUZZTIME) ./internal/xcode
	$(GO) test -run='^$$' -fuzz='^FuzzStreamInflate$$' -fuzztime=$(FUZZTIME) ./internal/xcode

# The fault-injection suites under the race detector: connection and
# store chaos, torn-write journal recovery, divergence detection and
# dirty-range repair, resync cancellation, scrubbing, and the group
# drill that kills two unit replicas mid-workload and rebuilds them by
# resync from the primary.
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

# Regenerate every figure of the paper's evaluation: rewrites each
# `<!-- prinsbench NAME -->` block of EXPERIMENTS.md in place.
repro:
	$(GO) run ./cmd/prinsbench -doc EXPERIMENTS.md all

# The check on EXPERIMENTS.md: regenerates every block but the
# wall-clock `overhead` one into a copy and fails, printing the diff,
# when the copy differs from the committed file.
repro-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	cp EXPERIMENTS.md "$$tmp/EXPERIMENTS.md"; \
	$(GO) run ./cmd/prinsbench -doc "$$tmp/EXPERIMENTS.md" density fig4 fig5 fig6 fig7 fig8 fig9 fig10 fanout; \
	diff -u EXPERIMENTS.md "$$tmp/EXPERIMENTS.md"

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
