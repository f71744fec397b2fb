GO ?= go

.PHONY: all build fmt-check vet test race bench bench-compare sched-gate check fuzz-smoke cover-gate alloc-gate trace-smoke examples-smoke perfbench-test loc

all: check build

build:
	$(GO) build ./...

## fmt-check fails if any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## bench runs the root benchmark suite and writes BENCH_PR12.json — the
## machine-readable ns/op table (via cmd/benchjson). The suite covers the
## Markov kernels and figures, the simulation substrate
## (BenchmarkTableChurn, BenchmarkRuleMatch, BenchmarkDetectorObserve,
## BenchmarkShardedSim1k — the netsim fleet engine driving a 1125-switch
## fat-tree at 1 and 8 shards), BenchmarkIngestPcap — the full
## capture-ingestion pipeline (pcap decode, flow extraction, universe
## mapping) on a ~10k-packet in-memory capture — and, from
## internal/service, BenchmarkServiceSessions (flowrecond sessions/sec at
## 1/64/1k concurrent vs the naive one-goroutine-per-session baseline)
## and BenchmarkServiceProbeThroughput (probes/sec + model-store hit
## rate). The service benchmarks live in internal/service rather than
## the root suite so the root bench binary's import graph — and with it
## the code layout its micro-benchmarks are sensitive to — stays fixed;
## the two packages' outputs merge into one json.
##
## Each round runs every top-level benchmark in a process of its own, and
## there are 30 rounds; benchjson keeps the fastest of the 30 runs per
## name. One process per benchmark keeps a benchmark's number independent
## of which benchmarks ran before it in the same process (deleting
## BenchmarkSimScheduler and the legacy-serial variant moved the medians
## of untouched benchmarks that ran after them by 5-10% in one-process
## runs). Rounds spread each
## benchmark's runs over the whole ~20 min recording, so a quiet or busy
## spell on a shared host lands on all benchmarks alike.
bench:
	$(GO) test -c -o bench_root.test .
	$(GO) test -c -o bench_svc.test ./internal/service/
	@rm -f bench.out
	@for i in $$(seq 30); do \
		for b in $$(./bench_root.test -test.list '^Benchmark'); do \
			./bench_root.test -test.run '^$$' -test.bench "^$$b$$" -test.benchtime 500ms >> bench.out || exit 1; \
		done; \
		for b in $$(./bench_svc.test -test.list '^Benchmark'); do \
			(cd internal/service && ../../bench_svc.test -test.run '^$$' -test.bench "^$$b$$" -test.benchtime 500ms) >> bench.out || exit 1; \
		done; \
	done
	$(GO) run ./cmd/benchjson < bench.out > BENCH_PR12.json
	@rm -f bench.out bench_root.test bench_svc.test
	@echo "wrote BENCH_PR12.json"

## bench-compare diffs the committed benchmark history: it fails when any
## benchmark present in both BENCH_PR11.json and BENCH_PR12.json regressed
## by more than 15% ns/op, so the perf gate covers the substrate
## benchmarks as well as the Markov kernels. CI runs this as the perf
## gate.
bench-compare:
	$(GO) run ./cmd/benchjson -compare BENCH_PR11.json BENCH_PR12.json -max-regress 15

## sched-gate holds netsim's serial event loop to its recorded speed
## across refactors. netsim has one engine, the fleet, and every harness
## runs it at one shard, so the gated benchmark is the single-shard fleet
## drain, ShardedSim1k/fleet/shards=1, recorded same-host in
## BENCH_PR11.json (before the closure-per-hop engine was deleted) and
## BENCH_PR12.json (after). It may regress at most 2%.
sched-gate:
	$(GO) run ./cmd/benchjson -compare BENCH_PR11.json BENCH_PR12.json -bench ShardedSim1k/fleet/shards=1 -max-regress 2

## alloc-gate runs the allocation assertions without the race detector
## (race instrumentation allocates, so `make race` skips them): the
## netsim fleet drain (TestFleetDrainZeroAlloc) must inject, forward and
## exchange packets across shards with zero allocations in steady state,
## recycling its event records from the per-shard pools; Table.Lookup's
## hit path must stay within one; the disabled telemetry instruments (nil
## span recorder / event log) must cost zero allocations at every emit
## site; the streaming detector must observe with zero allocations per
## event — enabled and disabled; and the flowrecond scheduler's
## steady-state enqueue/take path (per-target group queues + the ready
## ring) must not allocate once warm.
alloc-gate:
	$(GO) test -run 'ZeroAlloc|SteadyStateAllocs|PoolRecycles' ./internal/netsim/ ./internal/flowtable/ ./internal/telemetry/ ./internal/detect/ ./internal/service/

## trace-smoke proves the span-export pipeline end to end on the golden
## fixture: export trial 0's causal span forest as Chrome trace_event
## JSON via cmd/inspect, then structurally validate the result (the same
## check ui.perfetto.dev's importer applies on load).
trace-smoke:
	$(GO) run ./cmd/inspect -perfetto trace-smoke.json -trial 0 internal/experiment/testdata/golden_small.jsonl
	$(GO) run ./cmd/inspect -validate-perfetto trace-smoke.json
	@rm -f trace-smoke.json

## fuzz-smoke runs each fuzz target for 10 s — long enough to shake out
## parser panics on truncated/oversized frames, indexed-vs-linear matcher
## disagreements, and pcap/frame decoder crashes on hostile captures,
## short enough for CI. The openflow seed corpora live in
## internal/openflow/testdata/fuzz/; the ingest targets seed themselves
## (FuzzParsePacket checks the fast frame parser against a slow
## per-byte reference decoder, FuzzReadPcap sanity-bounds whole files).
## FuzzSessionSpec feeds flowrecond's spec decoder and validator: no
## panic, and no accepted spec may name a file trace source or exceed
## the per-session trial cap. FuzzTrialrecRead feeds the recording
## reader behind `inspect -diff`/`-replay`: no panic, and every accepted
## recording parses identically twice. Its seeds are the ~28 KB golden
## recordings, and minimizing each new input of that size for the default
## 60 s would spend the whole 10 s budget, so its minimization is capped
## at 100 runs per input.
fuzz-smoke:
	$(GO) test ./internal/openflow/ -run '^$$' -fuzz FuzzReadMessage -fuzztime 10s
	$(GO) test ./internal/openflow/ -run '^$$' -fuzz FuzzParsePacket -fuzztime 10s
	$(GO) test ./internal/rules/ -run '^$$' -fuzz FuzzMatchInDifferential -fuzztime 10s
	$(GO) test ./internal/ingest/ -run '^$$' -fuzz FuzzParsePacket -fuzztime 10s
	$(GO) test ./internal/ingest/ -run '^$$' -fuzz FuzzReadPcap -fuzztime 10s
	$(GO) test ./internal/service/ -run '^$$' -fuzz FuzzSessionSpec -fuzztime 10s
	$(GO) test ./internal/trialrec/ -run '^$$' -fuzz FuzzTrialrecRead -fuzztime 10s -fuzzminimizetime 100x

## cover-gate enforces statement-coverage floors on the packages whose
## failure modes are wire-facing: the OpenFlow codec, the fault-injection
## layer, the capture-ingestion pipeline and the flowrecond session
## service must each stay at or above 70%.
cover-gate:
	@for pkg in internal/openflow internal/faults internal/ingest internal/service; do \
		pct="$$($(GO) test -cover ./$$pkg/ | awk '{for (i=1;i<=NF;i++) if ($$i ~ /^[0-9.]+%$$/) {sub(/%/,"",$$i); print $$i}}')"; \
		if [ -z "$$pct" ]; then echo "cover-gate: no coverage figure for $$pkg"; exit 1; fi; \
		ok="$$(echo "$$pct 70" | awk '{print ($$1 >= $$2) ? 1 : 0}')"; \
		if [ "$$ok" != 1 ]; then echo "cover-gate: $$pkg coverage $$pct% < 70%"; exit 1; fi; \
		echo "cover-gate: $$pkg $$pct% >= 70%"; \
	done

## examples-smoke runs every netsim example to completion: `go build`
## only compiles them, so a runtime error (say, adding a host to a fleet
## that is already running) would otherwise go unnoticed. Each example
## also exits non-zero when its conclusion fails: webvisit misclassifies
## a scenario, recon misses the capacity or the idle timeout, or a
## countermeasure leaves the attacker off its expected accuracy.
examples-smoke:
	$(GO) run ./examples/webvisit
	$(GO) run ./examples/recon
	$(GO) run ./examples/countermeasures

## perfbench-test vets and tests the end-to-end benchmark. perfbench is
## its own module, so the root `go test ./...` never builds it, yet it
## imports the experiment and service packages.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## loc prints the non-test Go line count of the repository (the perfbench
## module and its build directory excluded).
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './perfbench/*' -not -path './.bench_build/*' | xargs cat | wc -l

## check is the pre-merge gate: formatting, vet, the full test suite
## under the race detector, the allocation gate (which race builds must
## skip), the trace-export smoke, the example runs, and the
## scheduler-overhead gate on the committed benchmark history.
check: fmt-check vet race alloc-gate trace-smoke examples-smoke sched-gate
