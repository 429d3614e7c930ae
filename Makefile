# Mirrors .github/workflows/ci.yml: `make ci` is what CI runs.

GO ?= go

# Benchmarks covered by the smoke run: the query hot paths (uncached, and
# BenchmarkHTTPCachedHit: a stored body served through the handler), the
# rollup/ingest paths whose regressions matter (summary, scope generations,
# monitor-shaped batched appends), the durability paths (WAL-enabled
# batch ingest, WAL append+flush cycle, boot-time replay), and the
# change-feed paths (publish round with a draining and with a stalled
# subscriber, 1/64/512-subscriber fan-out), the advisor ranking path
# (BenchmarkAdvise), three cold rankings of the read-cold workload
# (BenchmarkAdviseRegion, BenchmarkQueryStableRegion and
# BenchmarkQueryVolatileRegion: one region, n = 10, a new 6-144 h window
# per call), the
# metrics overhead pair (BenchmarkObsOverhead runs each instrumented hot
# path against its nil-registry twin — the two must stay within noise of
# each other), and the tick pair (BenchmarkSimStep: one full-catalog
# simulator step; BenchmarkServiceTick: a step plus one monitoring cycle
# over all nine regions), which the leader preload behind live-fleet's
# setup_s and ingest-recover's timed loop are made of.
BENCH_SMOKE = BenchmarkQueryStable|BenchmarkHTTPCachedHit|BenchmarkQueryFallback|BenchmarkQuerySummary|BenchmarkStoreRegionAggregates|BenchmarkGenerationOfScope|BenchmarkStoreAppendMonitorTick|BenchmarkStoreAppendProbesBatchParallel|BenchmarkWALAppend|BenchmarkReplay|BenchmarkFeedPublish|BenchmarkFeedFanout|BenchmarkAdvise|BenchmarkAdviseRegion|BenchmarkQueryStableRegion|BenchmarkQueryVolatileRegion|BenchmarkPriceStatsIn|BenchmarkSpikesInWindow|BenchmarkObsOverhead|BenchmarkSimStep|BenchmarkServiceTick

# Benchmark iteration control. The CI smoke keeps the 1x default (it only
# proves the benchmarks run); any measurement that will be *compared* —
# the committed baseline above all — must use enough iterations that
# per-op numbers are averages, not a single cold pass. Override per run:
# `make bench BENCH_TIME=2s BENCH_COUNT=5`.
BENCH_TIME ?= 1x
BENCH_COUNT ?= 1

# bench-diff inputs: OLD defaults to the committed baseline, NEW to the
# latest smoke run.
OLD ?= bench-baseline.txt
NEW ?= bench-smoke.txt

.PHONY: all build test vet fmt-check loc bench bench-diff bench-baseline bench-e2e bench-gate smoke chaos-smoke fuzz-smoke example-smoke cover-runs ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

# Line budget: print the non-test Go lines of every package as the
# markdown table docs/architecture.md records, and fail when a package
# has outgrown its recorded figure (or has none) — growth is a decision
# made by editing that table, not a side effect. The benchmark program
# under bench/ is outside the budget.
LOC_DOC = docs/architecture.md

loc:
	@fail=0; total=0; \
	echo "| package | non-test lines |"; echo "|---|---:|"; \
	for d in $$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' | xargs -n1 dirname | sort -u); do \
		pkg=$${d#./}; n=$$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l); total=$$((total + n)); \
		echo "| \`$$pkg\` | $$n |"; \
		max=$$(awk -F'|' -v p="\`$$pkg\`" '{gsub(/ /, "", $$2)} $$2 == p {gsub(/ /, "", $$3); print $$3}' $(LOC_DOC)); \
		if [ -z "$$max" ] || [ "$$n" -gt "$$max" ]; then \
			echo "loc: $$pkg has $$n non-test lines, $(LOC_DOC) records $${max:-none}" >&2; fail=1; \
		fi; \
	done; \
	echo "| **total** | $$total |"; exit $$fail

# Benchmark smoke: compile and run each perf-critical query path once
# (the pattern BenchmarkQueryStable also matches its Region and Parallel
# variants). Capture-then-cat instead of tee so the exit status survives
# /bin/sh.
bench:
	@$(GO) test -bench='$(BENCH_SMOKE)' -benchtime=$(BENCH_TIME) -count=$(BENCH_COUNT) -run='^$$' . >bench-smoke.txt 2>&1; \
	rc=$$?; cat bench-smoke.txt; exit $$rc

# bench-diff compares two benchmark outputs (`make bench-diff OLD=a NEW=b`)
# so rollup hot-path regressions are visible at a glance: benchstat when
# installed, a plain unified diff otherwise.
bench-diff:
	@if [ ! -f "$(OLD)" ] || [ ! -f "$(NEW)" ]; then \
		echo "bench-diff: need $(OLD) and $(NEW) (run 'make bench'; refresh the baseline with 'make bench-baseline')" >&2; \
		exit 1; \
	fi; \
	if command -v benchstat >/dev/null 2>&1; then \
		benchstat "$(OLD)" "$(NEW)"; \
	else \
		echo "bench-diff: benchstat not installed, showing raw diff ($(OLD) -> $(NEW))"; \
		diff -u "$(OLD)" "$(NEW)" || true; \
	fi

# bench-baseline refreshes the committed comparison point for bench-diff.
# The baseline is measured, not smoked: it defaults to enough iterations
# that the recorded ns/op and B/op are stable averages (a 1x baseline
# once recorded the cached summary query as slower than the uncached one
# purely from first-iteration effects).
bench-baseline: BENCH_TIME = 100x
bench-baseline: bench
	cp bench-smoke.txt $(OLD)

# End-to-end benchmark (BENCHMARK.json, bench/README.md): one measured
# run of one workload exactly as the benchmark driver issues it —
# `make bench-e2e W=read-cold SEED=42`. The last line printed is the
# driver's one-object JSON report. To compare two commits, run the same
# target in a checkout of each, alternating.
W ?= read-cold
SEED ?= 42

bench-e2e:
	bash bench/run.sh --workload $(W) --seed $(SEED) --seconds 10 --trace 0

# End-to-end gate, three legs of the repo benchmark, each failing unless the
# driver line reports correct:true and failed:0. read-cold: every request
# a cache miss, so every ranking is computed, and the sampled responses
# are compared byte for byte (bodies, and an ETag on every 200) against
# the benchmark's own uncached oracle built from the public per-market
# folds. ingest-recover: two rounds of durable ingest, close and reopen —
# the reopened store must be at the pre-close generation and answer the
# fixed query set as the pre-close store and the in-memory dataset do —
# plus the crash variant (die after the last flush, lose nothing
# acknowledged), so the write path's recovery identity runs on every PR.
# live-fleet, traced: leader, follower and gateway under ingest with no
# fault injected, so fault-free means zero — no feed event dropped, no
# subscription lagged, no watch or replica stream reconnected or resynced,
# no gateway breaker opened.
bench-gate:
	@for wt in read-cold:0 ingest-recover:0 live-fleet:1; do \
		w=$${wt%:*}; \
		line="$$(bash bench/run.sh --workload $$w --seed 42 --seconds 2 --trace $${wt#*:} | tail -n 1)"; \
		echo "$$line"; \
		case "$$line" in \
			'{"correct":true,'*'"failed":0,'*) ;; \
			*) echo "bench-gate: $$w did not report correct:true and failed:0" >&2; exit 1 ;; \
		esac; \
		[ $$w = live-fleet ] || continue; \
		for m in store.feed.dropped store.feed.lagged query.watch.reconnects replica.reconnects replica.resyncs gateway.breaker_opens; do \
			case "$$line" in \
				*"\"$$m\":{\"value\":0,"*) ;; \
				*) echo "bench-gate: live-fleet $$m is not 0 in a fault-free run" >&2; exit 1 ;; \
			esac; \
		done; \
	done

# HTTP smoke: boot spotlightd on an ephemeral port, issue one v2 batch
# query against it through the pkg/client SDK, and exit.
smoke:
	$(GO) run ./cmd/spotlightd -addr 127.0.0.1:0 -smoke

# Chaos smoke: the failure-domain drill, under the race detector. One
# process boots a leader, a durable follower behind a fault-injecting
# TCP proxy, a memory follower, and a gateway with injected delays and
# resets, then — while load runs — kills streams, restarts the durable
# follower from disk (byte-comparing it against the never-killed
# replica, ETags included), kills the leader, and promotes a follower.
# Fails unless gateway read availability stays >= 99%, replication stays
# exactly-once, and every surviving node's end-of-drill metrics serve its
# role's core series with nonzero traffic counts (HTTP requests on every
# node, upstream requests on the gateway, applied records on the
# never-restarted follower). Report archived by CI next to
# bench-smoke.txt; the /metrics expositions land in chaos-metrics-dump.txt.
chaos-smoke:
	$(GO) run -race ./cmd/spotload -report chaos-report.txt -metrics-dump chaos-metrics-dump.txt

# Decision-layer smoke: run the fleet-manager example end to end — an
# /v2/advise call through the client SDK, then the threshold vs
# feedback-control head-to-head on a short identically-seeded run.
example-smoke:
	$(GO) run ./examples/fleet-manager -days 1 -target 2

# Fuzz smoke: a short native-fuzz burst over log recovery's decoders
# (FuzzWALDecode: whole log file images, run headers included, through
# the serial scan and the record decoder — malformed input must error,
# never panic, and the valid prefix must re-scan clean), the snapshot
# loader (FuzzSnapshotV2Decode: whole snapshot file images — footer, index
# and every section — must error, never panic, and an image that loads
# must load identically again), the follow stream a replica applies
# (FuzzFollowStream: arbitrary bytes must never panic, a record must apply
# exactly when the ordinal rule admits it and it keeps its family in time
# order, and the leader's own stream must rebuild its dump; a study's dump
# is a follow stream, and the golden fixture's dump is a seed) (the
# checked-in seed corpora live in internal/store/testdata/fuzz), every
# family's window (FuzzPriceWindow:
# the fuzzed stamps — saturated, duplicate and back in time — land as
# prices, spikes, revocations and probes in rounds of three, every round
# that goes back in time must be refused and counted; every windowed fold
# must match its naive fold, and PricesIn, SpikesFor, RevocationsFor and
# ProbesInWindow must return the in-window input the store kept bit for bit, on any
# series and window — NaN, ±Inf, -0, ends past the stamp range), over
# the market-ID order the rankings tie-break on (must equal the order of
# the rendered strings), and over the market-ID parser and the catalog
# position it feeds (FuzzParseSpotID: an accepted ID round-trips, and
# SpotIndex finds it exactly when the catalog lists it, at its own
# position), over the /v2/watch resume-token parser (FuzzWatchToken:
# the untrusted Last-Event-ID header must never panic, and every rendered
# or accepted token must parse back to the same position), over the
# /v1 URL surface (FuzzV1Query: any raw query string on any /v1 route
# answers 200 with an ETag and a JSON body, or 400 with the error
# envelope — never a panic or a 5xx — and a 200 unavailability lies in
# [0, 1] and equals the share of its window the fixture's outages
# cover), over the advise body
# (FuzzAdviseBody: any POST /v2/advise body answers 200 with an ETag and
# a decodable AdviseResponse, or 400 with an error code — never a panic
# or a 5xx), and over a follower's saved cursor.json (FuzzCursorDecode:
# any bytes error or decode, never panic, and an accepted cursor decodes
# to the same fields once marshalled again).
fuzz-smoke:
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzWALDecode$$' -fuzztime=10s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzPriceWindow$$' -fuzztime=10s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzSnapshotV2Decode$$' -fuzztime=10s
	$(GO) test ./internal/store -run '^$$' -fuzz '^FuzzFollowStream$$' -fuzztime=10s
	$(GO) test ./internal/market -run '^$$' -fuzz '^FuzzSpotIDCompare$$' -fuzztime=10s
	$(GO) test ./internal/market -run '^$$' -fuzz '^FuzzParseSpotID$$' -fuzztime=10s
	$(GO) test ./internal/query -run '^$$' -fuzz '^FuzzWatchToken$$' -fuzztime=10s
	$(GO) test ./internal/query -run '^$$' -fuzz '^FuzzV1Query$$' -fuzztime=10s
	$(GO) test ./internal/query -run '^$$' -fuzz '^FuzzAdviseBody$$' -fuzztime=10s
	$(GO) test ./internal/replica -run '^$$' -fuzz '^FuzzCursorDecode$$' -fuzztime=10s

# Coverage of what the binaries run, not gated: build every main (the
# commands, the examples and the benchmark) with coverage over the whole
# module, run each the way CI or a reader runs it — the daemon's
# self-smoke, the spotload drill, all seven examples, a 2-day study and
# its analysis, a 1-day ec2sim trace and the four benchmark workloads at
# two traced seconds — and print the statement coverage per package, the
# total, and every function no run reached. Everything, the benchmark's
# reports included, lands in a temporary directory.
cover-runs:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; bin=$$tmp/bin; mkdir -p $$bin $$tmp/cov; \
	for d in cmd/* examples/* bench; do \
		$(GO) build -cover -coverpkg=spotlight/... -o $$bin/$$(basename $$d) ./$$d; \
	done; \
	export GOCOVERDIR=$$tmp/cov; \
	$$bin/spotlightd -addr 127.0.0.1:0 -smoke >/dev/null 2>&1; \
	$$bin/spotload -report $$tmp/chaos-report.txt -metrics-dump $$tmp/chaos-metrics.txt >/dev/null 2>&1; \
	for e in examples/*; do $$bin/$$(basename $$e) >/dev/null 2>&1; done; \
	$$bin/spotlight-study -days 2 -quiet -out $$tmp/study >/dev/null; \
	$$bin/spotlight-analyze -in $$tmp/study/store.stream >/dev/null; \
	$$bin/ec2sim -days 1 -trace >/dev/null; \
	for w in read-hot read-cold live-fleet ingest-recover; do \
		$$bin/bench --workload $$w --seed 42 --seconds 2 --trace 1 --out $$tmp/bench >/dev/null 2>&1; \
	done; \
	$(GO) tool covdata percent -i=$$tmp/cov; \
	$(GO) tool covdata textfmt -i=$$tmp/cov -o $$tmp/cover.txt; \
	$(GO) tool cover -func=$$tmp/cover.txt >$$tmp/func.txt; \
	awk '$$NF == "0.0%"' $$tmp/func.txt >$$tmp/zero.txt; \
	echo "never-run functions:"; cat $$tmp/zero.txt; \
	echo "$$(wc -l <$$tmp/zero.txt) never-run functions, $$(grep -c '^spotlight/bench/' $$tmp/zero.txt || true) of them in bench/"; \
	tail -n 1 $$tmp/func.txt

ci: build fmt-check vet loc test smoke chaos-smoke example-smoke fuzz-smoke bench bench-gate
