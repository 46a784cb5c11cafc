# Repository verification targets. `make ci` is the gate: formatting,
# vet, build, the full test suite, and a race-detector pass over the
# packages that own the campaign worker pools. The test suite includes
# the lint suite (internal/lint, docs/static-analysis.md):
# TestRepoIsLintClean runs every analyzer over the module against
# lint.allow, and TestRepoEscapeBudget diffs the compiler's hot-path
# escapes against alloc.budget.

GO ?= go

.PHONY: ci vet fmtcheck alloc-budget registry-check build test race fuzz bench benchsmoke bench-check bench-json bench-diff cache-identity clean-cache

ci: fmtcheck vet registry-check build test race benchsmoke bench-check cache-identity

vet:
	$(GO) vet ./...

# gofmt cleanliness: any file listed is a failure.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Regenerate alloc.budget from the current tree. Review the diff before
# committing: a count moving up is a new hot-path heap allocation.
alloc-budget:
	$(GO) test -count=1 -run '^TestRepoEscapeBudget$$' ./internal/lint -update

# Registry completeness (internal/scheme): every registered design must
# build by name, report its registered name, and round-trip its release
# snapshot through the artifact codec (artifact.Encode and Decode) — a
# snapshot type the codec cannot persist fails here, not in a stale
# artifact cache. Every design must also replay exactly:
# fills staged with Store.Stage match fills written with Poke read by
# read, and sim.Replay with Verify on returns every recorded value. And
# a design built from the arrays a released instance parked must replay
# exactly like one built from fresh allocations, and once its pools are
# warm a whole cell of it (store, Build, Replay, both Releases) must
# allocate at most 16 KiB, however long the recording. Every design that
# releases llc.Counters must report a non-empty view with unique names
# after a write-heavy replay, and its decision histograms (BΔI kinds,
# C-Pack patterns, DISH fills) must add up to its insertions plus its
# write hits.
registry-check:
	$(GO) test -run 'TestRegistryOrderAndHarnessAgreement|TestEverySchemeIsComplete|TestEverySchemeReplaysExactly|TestRecycledSchemesMatchFresh|TestWarmCellsAllocateLittle|TestCounterSnapshotsAreConsistent' ./internal/scheme

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The worker pools live in harness (RunMatrix, ParMap) and are driven by
# the experiments package; -race over their tests catches data races in
# the parallel campaign paths — including the per-worker scratch arenas
# the Thesaurus caches carry, the singleflight run coalescing, and
# the release lifecycle's pools (docs/performance.md): the pooled base
# tables, the cache.Pool free lists every design parks its arrays in, and
# the backing store's page pool and page-map pool (internal/memory), all
# of which concurrent workers share. Short trace lengths keep this a smoke
# pass, not a full campaign. netq, the distributed-campaign queue, is
# goroutine-heavy too: leases, heartbeats, reconnects
# (docs/distribution.md).
race:
	$(GO) test -race -count=1 ./internal/harness ./internal/experiments ./internal/thesaurus ./internal/netq ./internal/cache ./internal/memory

# Compile-and-run the micro-benchmarks once, every BenchmarkHotPath row
# included: catches benchmarks broken by API changes without paying full
# measurement time. The figure benchmarks in the root package are
# excluded — even one iteration runs a whole experiment.
benchsmoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/... > /dev/null
	$(GO) test -run='^$$' -bench='^BenchmarkHotPath$$|ReadHit|InsertStream|WorkloadGeneration' -benchtime=1x . > /dev/null

# The campaign benchmark (bench/) is a Go module of its own, so the vet
# and test targets above never reach it. It calls internal APIs directly
# (workload generation, release snapshots, run keys); this compiles it
# against them and runs its tests: BENCHMARK.json against the code, and
# every workload at smoke scale against its golden report digest.
bench-check:
	cd bench && GOWORK=off $(GO) vet ./... && GOWORK=off $(GO) test ./...

# Short fuzzing smoke over the encoding and fingerprint invariants, over
# the online Ideal-Diff cache against its straightforward reference
# implementation (internal/ideal, lockstep_test.go), and over the
# Thesaurus data array against its slot-per-entry reference
# (internal/thesaurus, dataarray_ref_test.go); the corpus seeds come from
# the unit-test vectors, so even a few seconds exercises the interesting
# shapes.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzDiffEncodeRoundtrip -fuzztime=5s ./internal/diffenc
	$(GO) test -run='^$$' -fuzz=FuzzLSHFingerprintStable -fuzztime=5s ./internal/lsh
	$(GO) test -run='^$$' -fuzz=FuzzRecordedCodecRoundtrip -fuzztime=5s ./internal/artifact
	$(GO) test -run='^$$' -fuzz=FuzzRunOutputCodecRoundtrip -fuzztime=5s ./internal/artifact
	$(GO) test -run='^$$' -fuzz=FuzzIdealMatchesReference -fuzztime=5s ./internal/ideal
	$(GO) test -run='^$$' -fuzz=FuzzDataArrayMatchesReference -fuzztime=5s ./internal/thesaurus

# The artifact cache is an accelerator, never an input: campaign reports
# must be byte-identical whether the cache is off, cold, or warm, with
# the run-level layer on or off, serial, parallel, or distributed across
# worker processes over the netq TCP work queue (docs/distribution.md):
# -distribute alone (loopback), -serve with spawned workers sharing the
# cache dir, and workers with private per-worker dirs, even when one is
# killed -9 mid-campaign (its leases requeue and the survivor finishes).
# Every worker sends each cell's run output home, so in each distributed
# leg the coordinator's own stats line must read 0 misses: a report that
# matches only because the coordinator recomputed every dropped result
# fails here. The snapshot readers (Figs.
# 1, 2, 5) ask for Baseline runs that keep their resident lines, which
# fig13's Baseline runs leave out; their legs run over the cache the
# fig13-only legs filled, so line runs must miss past the line-less
# entries of the same cells — cold at -workers 4, warm, and with the
# run-level layer off. Stores publish by rename without a sync, so a
# machine crash can leave entries torn under their final names: the torn
# leg cuts every entry of a copy of the warm cache to half its length
# and requires the same report, with every entry counted corrupt (and
# recomputed). The per-experiment
# wall-clock lines are the only legitimate difference in text mode and
# are filtered before comparison; artifact stats go to stderr and never
# touch the reports. The cold-vs-warm timing at the end enforces the run-level
# cache's reason to exist: a warm quick-campaign rerun must be >=5x
# faster than the cold run (it is pure artifact decode, so the margin is
# ordinarily far larger).
cache-identity:
	@set -e; tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; \
	$(GO) build -o $$tmp/thesaurus ./cmd/thesaurus; \
	echo "cache-identity: cache-off serial (reference)"; \
	$$tmp/thesaurus -no-cache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig13 2>/dev/null \
		| sed '/completed in/d' >$$tmp/ref.txt; \
	$$tmp/thesaurus -json -no-cache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>/dev/null >$$tmp/ref.json; \
	echo "cache-identity: cold cache, workers=4"; \
	t0=$$(date +%s%3N); \
	$$tmp/thesaurus -cache-dir $$tmp/cache -workers 4 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>/dev/null | sed '/completed in/d' >$$tmp/cold.txt; \
	t1=$$(date +%s%3N); \
	echo "cache-identity: warm cache, serial + json workers=4"; \
	$$tmp/thesaurus -cache-dir $$tmp/cache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>/dev/null | sed '/completed in/d' >$$tmp/warm.txt; \
	t2=$$(date +%s%3N); \
	$$tmp/thesaurus -json -cache-dir $$tmp/cache -workers 4 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>/dev/null >$$tmp/warm.json; \
	echo "cache-identity: torn cache (a copy with every entry cut to half its length), workers=4"; \
	cp -R $$tmp/cache $$tmp/torn; n=0; \
	for f in $$tmp/torn/*.thsa; do truncate -s $$(($$(wc -c <$$f) / 2)) $$f; n=$$((n+1)); done; \
	$$tmp/thesaurus -cache-dir $$tmp/torn -workers 4 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>$$tmp/torn.err | sed '/completed in/d' >$$tmp/torn.txt; \
	if ! grep -q "stores, $$n corrupt," $$tmp/torn.err; then \
		echo "cache-identity: FAIL: expected all $$n torn entries counted corrupt:"; cat $$tmp/torn.err; exit 1; fi; \
	echo "cache-identity: warm cache, run-level layer off"; \
	$$tmp/thesaurus -cache-dir $$tmp/cache -no-run-cache -workers 4 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>/dev/null | sed '/completed in/d' >$$tmp/norun.txt; \
	echo "cache-identity: distributed (-distribute 2), fresh cache"; \
	$$tmp/thesaurus -distribute 2 -cache-dir $$tmp/dcache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>$$tmp/dist.txt.err | sed '/completed in/d' >$$tmp/dist.txt; \
	$$tmp/thesaurus -json -distribute 2 -cache-dir $$tmp/dcache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>$$tmp/dist.json.err >$$tmp/dist.json; \
	echo "cache-identity: netq loopback (-serve + 2 spawned workers sharing the cache dir), fresh cache"; \
	$$tmp/thesaurus -serve 127.0.0.1:0 -addr-file $$tmp/addr1 -distribute 2 \
		-cache-dir $$tmp/ncache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>$$tmp/netq.txt.err | sed '/completed in/d' >$$tmp/netq.txt; \
	$$tmp/thesaurus -json -serve 127.0.0.1:0 -addr-file $$tmp/addr1 -distribute 2 \
		-cache-dir $$tmp/ncache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>$$tmp/netq.json.err >$$tmp/netq.json; \
	echo "cache-identity: netq with private worker cache dirs, one worker killed mid-campaign"; \
	$$tmp/thesaurus -connect @$$tmp/addr2 -cache-dir $$tmp/w1cache 2>/dev/null & w1=$$!; \
	$$tmp/thesaurus -connect @$$tmp/addr2 -cache-dir $$tmp/w2cache 2>/dev/null & w2=$$!; \
	( sleep 3; kill -9 $$w2 2>/dev/null ) & killer=$$!; \
	$$tmp/thesaurus -serve 127.0.0.1:0 -addr-file $$tmp/addr2 -lease 5s -serve-grace 30s \
		-cache-dir $$tmp/nkcache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig13 \
		2>$$tmp/netqkill.txt.err | sed '/completed in/d' >$$tmp/netqkill.txt; \
	wait $$w1 $$killer 2>/dev/null || true; \
	for leg in dist.txt dist.json netq.txt netq.json netqkill.txt; do \
		if ! grep -q "artifact cache: [0-9]* hits, 0 misses," $$tmp/$$leg.err; then \
			echo "cache-identity: FAIL: the $$leg coordinator recomputed cells its workers ran:"; \
			cat $$tmp/$$leg.err; exit 1; fi; \
	done; \
	echo "cache-identity: snapshot readers (fig1 fig2 fig5 fig13), cache-off serial (reference)"; \
	$$tmp/thesaurus -json -no-cache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig1 fig2 fig5 fig13 \
		2>/dev/null >$$tmp/snapref.json; \
	echo "cache-identity: snapshot readers over the fig13-only cache: cold workers=4, warm serial, run-level layer off"; \
	$$tmp/thesaurus -json -cache-dir $$tmp/cache -workers 4 -quick -profiles mcf,omnetpp,xz,gcc fig1 fig2 fig5 fig13 \
		2>/dev/null >$$tmp/snapcold.json; \
	$$tmp/thesaurus -json -cache-dir $$tmp/cache -workers 1 -quick -profiles mcf,omnetpp,xz,gcc fig1 fig2 fig5 fig13 \
		2>/dev/null >$$tmp/snapwarm.json; \
	$$tmp/thesaurus -json -cache-dir $$tmp/cache -no-run-cache -workers 4 -quick -profiles mcf,omnetpp,xz,gcc fig1 fig2 fig5 fig13 \
		2>/dev/null >$$tmp/snapnorun.json; \
	cmp $$tmp/ref.txt $$tmp/cold.txt; \
	cmp $$tmp/ref.txt $$tmp/warm.txt; \
	cmp $$tmp/ref.json $$tmp/warm.json; \
	cmp $$tmp/ref.txt $$tmp/torn.txt; \
	cmp $$tmp/ref.txt $$tmp/norun.txt; \
	cmp $$tmp/ref.txt $$tmp/dist.txt; \
	cmp $$tmp/ref.json $$tmp/dist.json; \
	cmp $$tmp/ref.txt $$tmp/netq.txt; \
	cmp $$tmp/ref.json $$tmp/netq.json; \
	cmp $$tmp/ref.txt $$tmp/netqkill.txt; \
	cmp $$tmp/snapref.json $$tmp/snapcold.json; \
	cmp $$tmp/snapref.json $$tmp/snapwarm.json; \
	cmp $$tmp/snapref.json $$tmp/snapnorun.json; \
	cold=$$((t1-t0)); warm=$$((t2-t1)); \
	echo "cache-identity: cold $${cold}ms, warm $${warm}ms"; \
	if [ $$((warm*5)) -gt $$cold ]; then \
		echo "cache-identity: FAIL: warm quick-campaign rerun not >=5x faster than cold"; exit 1; fi; \
	echo "cache-identity: OK (byte-identical across cache-off/cold/warm/torn/run-cache-off/distributed/netq/netq-kill, snapshot readers cold/warm/run-cache-off; distributed coordinators 0 misses; warm >=5x cold)"

# Remove the default on-disk artifact cache (the -cache-dir default).
clean-cache:
	rm -rf "$${XDG_CACHE_HOME:-$$HOME/.cache}/thesaurus/artifacts"

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./internal/line ./internal/diffenc ./internal/lsh

# The hot-path rows (BenchmarkHotPath, docs/performance.md) in Go's
# standard benchmark format. Regenerate after performance work and commit
# the result; it is a record, and no gate reads it.
bench-json:
	$(GO) test -run '^$$' -bench '^BenchmarkHotPath$$' -benchmem -cpu 1 . >BENCH_hotpath.txt

# Compare the kernel and hot-path rows of BenchmarkHotPath between BASE (a
# git revision) and the working tree, both measured now, so host speed
# cancels: BASE is extracted with git archive, and both test binaries are
# built with -trimpath (so identical sources build identical binaries,
# wherever they sit). The rows compared are the ones BASE has, so a gated
# row the change deletes fails as missing. Each of 10 pairs runs every
# row on both sides back to back, alternating which side goes first, so
# the two samples of a pair are seconds apart rather than a whole pass
# over the rows.
# cmd/benchdiff fails a row that is over 15% slower in the median, slower
# in at least 9 of the 10 pairs and further from the base than the base's
# interquartile range, or whose allocs/op grew, or that is gone.
BASE ?= HEAD
bench-diff:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive "$(BASE)" | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) test -trimpath -c -o "$$tmp/base.test" .); \
	$(GO) test -trimpath -c -o "$$tmp/new.test" .; \
	rows=$$("$$tmp/base.test" -test.run '^$$' -test.bench '^BenchmarkHotPath$$/^(kernel|hot-path)$$' \
		-test.benchtime 1x -test.cpu 1 | awk 'sub(/^BenchmarkHotPath\//, "", $$1) { print $$1 }'); \
	if [ -z "$$rows" ]; then echo "bench-diff: $(BASE) has no kernel or hot-path rows"; exit 2; fi; \
	for i in 1 2 3 4 5 6 7 8 9 10; do \
		order="base new"; if [ $$((i % 2)) -eq 0 ]; then order="new base"; fi; \
		for row in $$rows; do \
			for side in $$order; do \
				"$$tmp/$$side.test" -test.run '^$$' -test.cpu 1 \
					-test.bench "^BenchmarkHotPath\$$/^$${row%%/*}\$$/^$${row#*/}\$$" >>"$$tmp/$$side.txt"; \
			done; \
		done; \
		echo "bench-diff: pair $$i of 10 done"; \
	done; \
	$(GO) run ./cmd/benchdiff "$$tmp/base.txt" "$$tmp/new.txt"
