# Convenience targets for the k-set consensus reproduction.
#
#   make all      - build + lint + test
#   make bench    - benchstat-friendly benchmark run (BENCH_COUNT repeats,
#                   BENCH_PATTERN filter); see docs/perf.md and BENCH_sweep.json
#   make verify   - empirical validation of the figures (ksetverify)

GO ?= go

# benchstat wants several repetitions of each benchmark to compute variance:
#   make bench BENCH_COUNT=10 > new.txt && benchstat old.txt new.txt
BENCH_COUNT ?= 6
BENCH_PATTERN ?= .

.PHONY: all build lint loc test race race-live short bench bench-sweep bench-net bench-e2e verify replay-corpus regen-corpus fuzz-smoke cluster-smoke acs-smoke sweep-smoke figures report clean

all: build lint test

build:
	$(GO) build ./...
	$(GO) vet ./...

# Static analysis: go vet plus the repo-specific analyzers — determinism,
# map-order, prng-flow, lock-discipline, and the concurrency-safety suite
# (errflow, goroutinelife, lockheldio). See docs/lint.md.
# Exits non-zero on findings.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/ksetlint

# Non-test Go lines outside bench/ and testdata/ (lint fixtures are test
# inputs): the yardstick a removal PR quotes before and after in CHANGES.md.
loc:
	@git ls-files --cached --others --exclude-standard '*.go' | grep -v _test.go | grep -v '^bench/' | grep -v 'testdata/' | xargs wc -l | tail -1

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Un-shortened race run over the TCP cluster runtime (including the
# fault-injected soak test) and ACS on it, the sweep engine (the worker pool
# behind -workers), the metrics registry, and the
# shared-memory simulator (every process step on one loop's stack) with the
# packages that run on it, and
# both simulators' run arenas with the harness arenas that keep one per
# worker (a cell's runs run serially on the arena it takes, on its witness
# instances of either simulator, restarted run after run), and the
# evaluators that fan out through harness.Executor.Run (grid cells, shrink
# candidates, report sections, ksetverify's cells and constructions).
race-live:
	$(GO) test -race -count=1 ./internal/sweep/ ./internal/cluster/ ./internal/acs/ ./internal/obs/ ./internal/smmem/ ./internal/trace/ ./internal/protocols/sm/ ./internal/protocols/mp/ ./internal/mpnet/ ./internal/harness/ ./internal/grid/ ./internal/shrink/ ./internal/report/ ./cmd/ksetverify/

short:
	$(GO) test -short ./...

# Benchstat-friendly: -count repetitions, no unit tests, fixed benchtime.
# Compare against a baseline with:
#   make bench > new.txt && benchstat baseline.txt new.txt
bench:
	$(GO) test -run XXX -bench '$(BENCH_PATTERN)' -benchmem -count=$(BENCH_COUNT) ./...

# The benchmarks tracked in BENCH_sweep.json (hot-path + sweep engine).
bench-sweep:
	$(GO) test -run XXX -bench 'BenchmarkFig2RegionsMPCR|BenchmarkFig4RegionsMPByz|BenchmarkFig5RegionsSMCR|BenchmarkFig6RegionsSMByz|BenchmarkRunFloodMin|BenchmarkRunProtocolC|BenchmarkRunProtocolD|BenchmarkEchoHandle|BenchmarkRunProtocolE/n=16|BenchmarkAblationScheduler|BenchmarkSMGrant|BenchmarkSolveEndToEnd|BenchmarkValidateCell|BenchmarkReportRun' -benchmem -count=$(BENCH_COUNT) .
	$(GO) test -run XXX -bench BenchmarkSweepWorkers -benchmem -count=$(BENCH_COUNT) ./internal/sweep/

# The network-path benchmarks tracked in BENCH_net.json (wire codec, batch
# frames, link throughput, flush cost against the unacked backlog, dedup
# window, decide latency under load, one instance's register-to-evict
# lifecycle with ids completing in order and shuffled). The
# soak frames/decision row of the ledger comes from the race soak instead:
#   go test -race -count=1 -run TestClusterSoak -v ./internal/cluster/
# BENCH_FLAGS lets CI shrink benchtime for a smoke run.
BENCH_FLAGS ?= -benchmem -benchtime=0.5s
bench-net:
	$(GO) test -run XXX -bench 'BenchmarkWireEncode|BenchmarkWireDecode|BenchmarkBatchRoundTrip' $(BENCH_FLAGS) -count=$(BENCH_COUNT) ./internal/wire/
	$(GO) test -run XXX -bench 'BenchmarkLinkThroughput|BenchmarkLinkFlushBacklog|BenchmarkLinkEnqueueUnreachable|BenchmarkNodeDecideUnderLoad|BenchmarkDedupWindow|BenchmarkInstanceLifecycle' $(BENCH_FLAGS) -count=$(BENCH_COUNT) ./internal/cluster/

# One set of runs of the repository's benchmark (BENCHMARK.json, bench/):
# every workload x every seed, one `bash bench/run.sh ... -out SET` each,
# appended to SET as JSON lines. With PARENT=<checkout of the parent commit>
# and PARENT_SET=<file> the same command records the parent's set too, the
# two sides taking turns, seed by seed, to go first — how a claimed gain has
# to be measured (docs/perf.md); compare with
#   bash bench/run.sh -compare $(PARENT_SET) $(SET)
# Paths are used from two checkouts, so give them absolute.
BENCH_WORKLOADS ?= decide.saturate decide.paced decide.crashed acs.append sweep.mp sweep.sm
BENCH_SEEDS ?= 1 2 3 4 5 6 7 8 9 10
bench-e2e:
	@test -n "$(SET)" || { echo "usage: make bench-e2e SET=<file> [PARENT=<dir> PARENT_SET=<file>]"; exit 2; }
	@test -z "$(PARENT)" || test -n "$(PARENT_SET)" || { echo "PARENT needs PARENT_SET=<file>"; exit 2; }
	@change() { bash bench/run.sh -workload $$1 -seed $$2 -out $(SET); }; \
	parent() { test -z "$(PARENT)" || bash $(PARENT)/bench/run.sh -workload $$1 -seed $$2 -out $(PARENT_SET); }; \
	turn=0; for s in $(BENCH_SEEDS); do turn=$$((1 - turn)); for w in $(BENCH_WORKLOADS); do \
		if [ $$turn -eq 1 ]; then parent $$w $$s && change $$w $$s; \
		else change $$w $$s && parent $$w $$s; fi || exit 1; \
	done; done

# Empirical validation of every figure panel plus the impossibility
# constructions (quick sizes; raise -n/-runs to go deeper).
verify:
	$(GO) run ./cmd/ksetverify -fig all -n 16 -runs 32 -samples 4
	$(GO) run ./cmd/ksetverify -constructions -n 16

# Replay every checked-in counterexample artifact through the real simulator
# and verify the recorded verdicts reproduce. See docs/replay.md.
replay-corpus:
	$(GO) run ./cmd/ksetreplay testdata/traces/*.ktr
	$(GO) test -run TestReplayCorpus ./cmd/ksetreplay/

# Rebuild testdata/traces from scratch (capture + shrink). Deliberate act:
# run after a trace-format or shrinker change, then commit the artifacts.
regen-corpus:
	KSET_REGEN_TRACES=1 $(GO) test -run TestRegenerateCorpus -v ./cmd/ksetreplay/

# Short fuzz pass over the trace and wire codecs (one invocation per
# target: go fuzz allows a single -fuzz pattern match per run). The trace
# targets check that Decode never panics and accepts only Validate-clean
# artifacts, and that Encode(Decode(x)) is x, byte for byte, for every x
# Decode accepts; their seeds include spellings strconv reads but Encode
# never writes (n 03, n +3, halt-on-decide 0 and F, inputs 01,…).
# FuzzReplaySchedule replays the corpus artifacts under fuzzed schedules,
# one entry per byte: Replay never fails, and replaying the schedule and
# crash points it re-records is exact (same schedule, crashes, record and
# verdict). The wire
# seed corpus derives from the codec's sample messages, so the ACS
# vocabulary (propose, acs-submit/ack, acs-round, log pulls) is fuzzed
# automatically. The last target feeds Protocols C and D and the l-echo
# broadcast arbitrary kinds, origins and senders: no panic, and every call
# equal to the map-based reference. The next two run smmem's API.Poll and
# API.Scan against their Read-loop spellings on fuzzed write points, hit
# handlers and visitors (writes included), schedules and crashes: record,
# the grant and crash stream trace.Recorder records around the scheduler and
# crash adversary, and the Trace stream equal.
# FuzzWindowMatchesOracle checks the cluster's window (peer dedup and the
# shards' id windows) against a map-plus-watermark oracle. FuzzClassify
# checks the classifier up to n = 200: total, and no cell left open that
# one step of the paper's carry rules decides from another cell.
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzTraceDecode -fuzztime 10s ./internal/trace/
	$(GO) test -run XXX -fuzz FuzzTraceRoundTrip -fuzztime 10s ./internal/trace/
	$(GO) test -run XXX -fuzz FuzzReplaySchedule -fuzztime 10s ./internal/trace/
	$(GO) test -run XXX -fuzz FuzzWireDecode -fuzztime 10s ./internal/wire/
	$(GO) test -run XXX -fuzz FuzzWireRoundTrip -fuzztime 10s ./internal/wire/
	$(GO) test -run XXX -fuzz FuzzProtocolDeliver -fuzztime 10s ./internal/protocols/mp/
	$(GO) test -run XXX -fuzz FuzzPollMatchesReadLoop -fuzztime 10s ./internal/smmem/
	$(GO) test -run XXX -fuzz FuzzScanMatchesReadLoop -fuzztime 10s ./internal/smmem/
	$(GO) test -run XXX -fuzz FuzzWindowMatchesOracle -fuzztime 10s ./internal/cluster/
	$(GO) test -run XXX -fuzz FuzzClassify -fuzztime 10s ./internal/theory/

# Loopback 5-node TCP cluster under -race: concurrent FloodMin and
# Protocol A instances over an adversarial transport, one crashed node, one
# flapping link, every surviving node's decisions verified by the checker.
# Then a live single-node daemon: its /healthz and /metrics HTTP endpoints
# must answer (Prometheus exposition with the kset_ series present).
# Finally a live two-node daemon pair driven by ksetctl: after a verified
# instance, /metrics must show the batched transport actually engaged
# (nonzero batch frames sent and acks piggybacked), and `ksetctl stats` must
# read the same counter over pull-metrics between the processes.
cluster-smoke:
	$(GO) test -race -count=1 -run TestClusterSoak -v ./internal/cluster/
	$(GO) build -o ksetd-smoke ./cmd/ksetd
	$(GO) build -o ksetctl-smoke ./cmd/ksetctl
	./ksetd-smoke -id 0 -peers 127.0.0.1:19707 -listen 127.0.0.1:19707 \
		-metrics 127.0.0.1:19708 -k 1 -t 0 -quiet & pid=$$!; \
	sleep 1; status=0; \
	curl -fsS http://127.0.0.1:19708/healthz || status=1; \
	curl -fsS http://127.0.0.1:19708/metrics | grep -q kset_frames_sent_total || status=1; \
	curl -fsS http://127.0.0.1:19708/metrics | grep -q kset_shard_mailbox_depth || status=1; \
	kill $$pid; exit $$status
	./ksetd-smoke -id 0 -peers 127.0.0.1:19711,127.0.0.1:19712 \
		-metrics 127.0.0.1:19713 -k 1 -t 0 -quiet & pid0=$$!; \
	./ksetd-smoke -id 1 -peers 127.0.0.1:19711,127.0.0.1:19712 \
		-quiet & pid1=$$!; \
	sleep 1; status=0; \
	./ksetctl-smoke run -peers 127.0.0.1:19711,127.0.0.1:19712 -instances 4 || status=1; \
	curl -fsS http://127.0.0.1:19713/metrics | grep -E 'kset_frames_sent_total [1-9]' || status=1; \
	curl -fsS http://127.0.0.1:19713/metrics | grep -E 'kset_acks_piggybacked_total [1-9]' || status=1; \
	./ksetctl-smoke stats -peers 127.0.0.1:19711,127.0.0.1:19712 | grep -E 'kset_frames_sent_total +[1-9]' || status=1; \
	kill $$pid0 $$pid1; rm -f ksetd-smoke ksetctl-smoke; exit $$status

# The ordered-log acceptance run (docs/acs.md). First the race soak: a
# 4-node loopback cluster with one node crashed, a flapping link and
# injected transport faults closes 50 ACS rounds with byte-identical logs
# on every survivor. Then the same shape live: four `ksetd -acs` daemons,
# node 3 killed, 50 values appended round-robin through ksetctl (each
# append verifies its round's vector on every survivor and that the entry
# landed at the same index everywhere; the first append's output is kept and
# must confirm the vector), and a final strict tail that fails on any
# divergence or length mismatch.
acs-smoke:
	$(GO) test -race -count=1 -run TestAcsSoak -v ./internal/acs/
	$(GO) build -o ksetd-smoke ./cmd/ksetd
	$(GO) build -o ksetctl-smoke ./cmd/ksetctl
	peers=127.0.0.1:19721,127.0.0.1:19722,127.0.0.1:19723,127.0.0.1:19724; \
	./ksetd-smoke -id 3 -peers $$peers -t 1 -acs -quiet & pid3=$$!; \
	./ksetd-smoke -id 0 -peers $$peers -t 1 -acs -quiet & pid0=$$!; \
	./ksetd-smoke -id 1 -peers $$peers -t 1 -acs -quiet & pid1=$$!; \
	./ksetd-smoke -id 2 -peers $$peers -t 1 -acs -quiet & pid2=$$!; \
	sleep 1; kill $$pid3; status=0; \
	survivors=127.0.0.1:19721,127.0.0.1:19722,127.0.0.1:19723; \
	out=$$(./ksetctl-smoke log append -peers $$survivors -node 0 -value 1000) || status=1; \
	echo "$$out"; echo "$$out" | grep -q 'vector identical on 3 nodes' || status=1; \
	i=1; while [ $$i -lt 50 ]; do \
		./ksetctl-smoke log append -peers $$survivors -node $$((i % 3)) \
			-value $$((1000 + i)) > /dev/null || { status=1; break; }; \
		i=$$((i + 1)); \
	done; \
	./ksetctl-smoke log tail -peers $$survivors -strict || status=1; \
	kill $$pid0 $$pid1 $$pid2; rm -f ksetd-smoke ksetctl-smoke; exit $$status

# Distributed grid-sweep acceptance run (docs/sweep.md): a live 3-node
# loopback cluster executes a 288-cell grid sharded 4 cells at a time, with
# one node killed one second into the sweep so its shards are reassigned;
# then the identical grid runs in-process. The CSV and JSONL outputs must be
# byte-identical — the determinism-by-construction contract, end to end over
# real TCP with a mid-sweep crash. Artifacts stay in sweep-out/ for CI upload.
sweep-smoke:
	$(GO) build -o ksetd-smoke ./cmd/ksetd
	$(GO) build -o ksetsweep-smoke ./cmd/ksetsweep
	mkdir -p sweep-out
	peers=127.0.0.1:19741,127.0.0.1:19742,127.0.0.1:19743; \
	axes="-models mp/cr,sm/cr -validities rv1,rv2 -n 12,16 -k 2,3,4 -t 1,2,3 \
		-faults full,none -trials 2 -runs 10"; \
	./ksetd-smoke -id 0 -peers $$peers -k 1 -t 0 -quiet & pid0=$$!; \
	./ksetd-smoke -id 1 -peers $$peers -k 1 -t 0 -quiet & pid1=$$!; \
	./ksetd-smoke -id 2 -peers $$peers -k 1 -t 0 -quiet & pid2=$$!; \
	sleep 1; status=0; \
	( sleep 1; kill $$pid2 2>/dev/null ) & \
	./ksetsweep-smoke -peers $$peers -shard 4 $$axes \
		-csv sweep-out/dist.csv -jsonl sweep-out/dist.jsonl || status=1; \
	./ksetsweep-smoke -local $$axes \
		-csv sweep-out/local.csv -jsonl sweep-out/local.jsonl || status=1; \
	cmp sweep-out/dist.csv sweep-out/local.csv || status=1; \
	cmp sweep-out/dist.jsonl sweep-out/local.jsonl || status=1; \
	kill $$pid0 $$pid1 $$pid2 2>/dev/null; rm -f ksetd-smoke ksetsweep-smoke; \
	exit $$status

# Regenerate the paper's figures at n=64 into docs/figures/.
figures:
	mkdir -p docs/figures
	$(GO) run ./cmd/ksetregions -lattice > docs/figures/figure1-lattice.txt
	$(GO) run ./cmd/ksetregions -model mp/cr -n 64 > docs/figures/figure2-mp-cr-n64.txt
	$(GO) run ./cmd/ksetregions -model mp/byz -n 64 > docs/figures/figure4-mp-byz-n64.txt
	$(GO) run ./cmd/ksetregions -model sm/cr -n 64 > docs/figures/figure5-sm-cr-n64.txt
	$(GO) run ./cmd/ksetregions -model sm/byz -n 64 > docs/figures/figure6-sm-byz-n64.txt

# One-shot evaluation report (EXPERIMENTS.md structure) into docs/.
report:
	$(GO) run ./cmd/ksetreport -n 12 -runs 16 -samples 3 > docs/report.md

clean:
	$(GO) clean ./...
