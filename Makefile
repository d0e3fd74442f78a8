# Tier-1 gate: everything `make check` runs must pass before a PR lands.
GO ?= go

.PHONY: check fmt vet vet-faults build deadcode test race fuzz loc identity bench bench-telemetry bench-load bench-train bench-train-smoke bench-fleet bench-fleet-smoke faults-smoke fleet-smoke fleet-scale-smoke loadgen-smoke workload-smoke admission-smoke capacity-smoke

# check runs the gate's targets in order, printing each one's wall time
# (`== race: 412s`) and stopping at the first failure.
CHECK_TARGETS = fmt vet vet-faults build deadcode race fuzz fleet-smoke fleet-scale-smoke loadgen-smoke workload-smoke bench-train-smoke bench-fleet-smoke admission-smoke capacity-smoke

check:
	@for t in $(CHECK_TARGETS); do \
		start=$$(date +%s); \
		$(MAKE) --no-print-directory $$t || exit 1; \
		echo "== $$t: $$(( $$(date +%s) - start ))s"; \
	done

# fmt fails (listing the offending files) when anything is not gofmt-clean.
fmt:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# The fault layer's Apply/Measure interpose on every agent step; dead branches
# there would silently skip injections, so it also gets the unreachable-code
# analyzer (not part of vet's default set).
vet-faults:
	$(GO) vet -unreachable ./internal/faults/...

build:
	$(GO) build ./...

# deadcode fails on an exported identifier of internal/ that no non-test file
# references outside the file declaring it, unless cmd/deadcode/allowlist.txt
# lists it; it also fails on a listed identifier that is referenced again or
# gone, so the allowlist only shrinks (cmd/deadcode says how references are
# matched); each failure names the identifier and the file declaring it.
deadcode:
	$(GO) run ./cmd/deadcode

test:
	$(GO) test ./...

# The whole pass takes ≈3.6 min on two cores (`make check`'s timer: race
# 218 s; 252 s before the calendar tick, DESIGN §5l): internal/bench 93 s
# (159 s before — the package's time is the simulator's, not the solver's),
# internal/webtier 87 s (its differential grid against the scanning tick is
# 55 s of that), fleet 48 s, core 18 s. It ran ~10-12 min before the
# simulator's tick was indexed and ≈7 min before policy training became a
# solve (DESIGN §5h). `make check` runs `fuzz` right after it, ≈25 s more.
# A loaded machine can still stretch it toward
# go test's default 10 min -timeout; the explicit budget keeps the gate from
# flaking there.
race:
	$(GO) test -race -timeout 30m ./...

# fuzz runs every Fuzz* target in the tree (FuzzLoadPolicy,
# FuzzRestoreAgentState, FuzzDecodeCheckpoint, FuzzLoadRecipe,
# FuzzLoadScenario, FuzzLoadFaults, FuzzLoadConfig, FuzzAdminConfig and
# FuzzSolve today) for a fixed 10 s each — ≈110 s in all beside race's 218 s,
# the rest being compilation. FuzzSolve holds mdp.Solve's value sweep to the
# slab sweep it replaced (solveSlab) on generated structures of up to eight
# states, and GrowingStructure.Solve to the region's old slab sweep
# (solveLive) on the same structures grown state by state, ≈20 000
# executions per second on two cores. FuzzLoadScenario and FuzzLoadFaults seed from the shipped
# examples/scenarios/*.json and examples/faults_*.json, FuzzLoadConfig from
# examples/racd_fleet.json, FuzzAdminConfig (the live server's POST
# /admin/config) from the default webtier params.
# Plain `go test` already runs each target's seeds; this mutates past them.
# FuzzLoadPolicy seeds from a four-parameter space's policy in both formats
# (a 0.5 kB document and its 2.4 kB first-format twin) and the committed
# compatibility corpus: ≈90 000 executions per 10 s on two cores. FuzzDecodeCheckpoint decodes each input as
# an envelope and again sealed in a valid one, so mutations also reach the
# JSON payload past the CRC. Minimizing a new input is capped at 1 s: at
# go's 60 s default, shrinking one kilobyte-sized snapshot byte by byte
# would eat the whole budget. A failing input lands in the package's
# testdata/fuzz/ (git-ignored).
fuzz:
	@grep -r --include='*_test.go' -o '^func Fuzz[A-Za-z0-9_]*' . | sort | \
	while IFS=: read -r file fn; do \
		name=$${fn#func }; pkg=./$$(dirname "$${file#./}"); \
		echo "fuzz $$name ($$pkg)"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s -fuzzminimizetime 1s "$$pkg" || exit 1; \
	done

# Non-test Go lines, the number ROADMAP aim 2 wants to see going down: one
# line per internal/ package, then cmd/, benchmark/, examples/ and the root
# package, then the total. A simplification PR quotes it before and after.
loc:
	@total=0; \
	for d in internal/*/ cmd/ benchmark/ examples/ ./; do \
		depth=; [ "$$d" = ./ ] && depth="-maxdepth 1"; \
		n=$$(find "$$d" $$depth -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%-22s %6d\n' "$${d%/}" "$$n"; \
		total=$$((total + n)); \
	done; \
	printf '%-22s %6d\n' total "$$total"

# Identity against another revision, the protocol a PR that must move
# nothing observable runs: `make identity REV=HEAD~1` builds racpolicy,
# racbench and racsim from REV (a `git archive` export under a temp dir —
# local git only, and nothing is registered in .git) and from the working
# tree, then compares: the six Table-2 policies and the sim coarse-2 policy
# each side trains, by content — the working tree's `racpolicy -inspect` of
# each file (digest, offline solve, predictions, greedy walk), so REV's files
# also go through the loader of their format, and each side's own
# `racpolicy -inspect` of its own files, so a change to what -inspect prints
# shows too; every simulated figure in quick
# mode minus its `(fig in N.Ns)` timing line (the ten paper figures of
# `racbench -all`, diurnal, overload, flashcrowd-capacity and the
# examples/faults_basic.json recovery figure; only the wall-clock `load`
# figure is left out); and five racsim runs picked to reach every path of the
# simulator's tick: the default MaxClients sweep; a SessionTimeout sweep
# (session expiry order); a MaxThreads sweep at 3000 clients, whose p95
# column reads 33.000 — the 30 s browser timeout plus retransmit delay, i.e.
# the abandon and SYN-retransmit paths; the flashcrowd scenario (SetWorkload
# mid-run); and a fault replay, the one deterministic run whose system goes
# through rac.BuildSystem (sim plus the fault layer, internal/backend). Exits
# non-zero on any difference. Not part of `make check`: it needs a revision
# to compare against.
identity:
	@test -n "$(REV)" || { echo "usage: make identity REV=<rev>"; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir -p $$tmp/src $$tmp/rev $$tmp/tree && \
	git archive $(REV) | tar -x -C $$tmp/src && \
	(cd $$tmp/src && $(GO) build -o $$tmp/rev/ ./cmd/racpolicy ./cmd/racbench ./cmd/racsim) && \
	$(GO) build -o $$tmp/tree/ ./cmd/racpolicy ./cmd/racbench ./cmd/racsim && \
	for side in rev tree; do ( cd $$tmp/$$side && \
		for n in 1 2 3 4 5 6; do ./racpolicy -train context-$$n -o context-$$n.json >/dev/null || exit 1; done && \
		./racpolicy -train context-1 -backend sim -coarse 2 -seed 1 -o sim-coarse2.json >/dev/null && \
		./racbench -all -quick | sed '/^  (.* in [0-9.]*s)$$/d' > figs.txt && \
		for fig in diurnal overload flashcrowd-capacity; do \
			./racbench -fig $$fig -quick | sed '/^  (.* in [0-9.]*s)$$/d' > $$fig.txt || exit 1; \
		done && \
		./racbench -faults $(CURDIR)/examples/faults_basic.json -quick | sed '/^  (.* in [0-9.]*s)$$/d' > fig-faults.txt && \
		./racsim -sweep MaxClients > sweep.txt && \
		./racsim -sweep SessionTimeout -clients 800 -mix browsing > sweep-session.txt && \
		./racsim -sweep MaxThreads -clients 3000 -mix shopping > sweep-threads.txt && \
		./racsim -scenario flashcrowd > scenario-flashcrowd.txt && \
		./racsim -faults $(CURDIR)/examples/faults_basic.json -warmup 30 -interval 60 > faults.txt ) || exit 1; \
	done && \
	for side in rev tree; do \
		for p in context-1 context-2 context-3 context-4 context-5 context-6 sim-coarse2; do \
			$$tmp/tree/racpolicy -inspect $$tmp/$$side/$$p.json || exit 1; \
		done > $$tmp/$$side/policies.txt || exit 1; \
		for p in context-1 context-2 context-3 context-4 context-5 context-6 sim-coarse2; do \
			$$tmp/$$side/racpolicy -inspect $$tmp/$$side/$$p.json || exit 1; \
		done > $$tmp/$$side/self-inspect.txt || exit 1; \
	done && \
	for f in policies.txt self-inspect.txt figs.txt diurnal.txt overload.txt flashcrowd-capacity.txt fig-faults.txt \
			sweep.txt sweep-session.txt sweep-threads.txt scenario-flashcrowd.txt faults.txt; do \
		diff -u $$tmp/rev/$$f $$tmp/tree/$$f || { echo "identity: $$f differs from $(REV)"; exit 1; }; \
	done && \
	grep '^digest:' $$tmp/tree/policies.txt && echo "identity: no difference from $(REV)"

# Quick benchmark pass over every package: one iteration per benchmark with
# allocation stats, summarised into BENCH_quick.json via cmd/benchjson. The
# two-step form keeps go test's exit code (a failing benchmark fails the
# target before any JSON is written).
bench:
	@$(GO) test -run xxx -bench . -benchmem -benchtime 1x ./... > BENCH_quick.txt || \
		{ cat BENCH_quick.txt; rm -f BENCH_quick.txt; exit 1; }
	@cat BENCH_quick.txt
	$(GO) run ./cmd/benchjson BENCH_quick.txt -o BENCH_quick.json
	@echo "wrote BENCH_quick.json"

# The telemetry hot path must stay allocation-free; see internal/telemetry.
bench-telemetry:
	$(GO) test -run xxx -bench . -benchmem ./internal/telemetry/

# The data-plane acceptance benchmark: sustained throughput of the seed
# closed-loop browser driver versus the open-loop engine (128 pacing
# workers, one accounting) against the same live stack, summarised into
# BENCH_load.json (compare the req/s metrics). Same two-step form as
# `make bench`.
bench-load:
	@$(GO) test -run xxx -bench Sustained -benchtime 5x ./internal/loadgen/ > BENCH_load.txt || \
		{ cat BENCH_load.txt; rm -f BENCH_load.txt; exit 1; }
	@cat BENCH_load.txt
	$(GO) run ./cmd/benchjson BENCH_load.txt -o BENCH_load.json
	@echo "wrote BENCH_load.json"

# The policy-training acceptance benchmark: quick-mode Figure-5 policy
# training (BenchmarkFig05Training — the store over the schedule contexts
# plus the initial policy, nothing served from the policy cache), pinned in
# the committed BENCH_train.json. Regenerate after intentional performance
# changes; bench-train-smoke gates `make check` against the committed
# numbers. Same two-step form as `make bench`.
bench-train:
	@$(GO) test -run xxx -bench Fig05Training -benchtime 3x . > BENCH_train.txt || \
		{ cat BENCH_train.txt; rm -f BENCH_train.txt; exit 1; }
	@cat BENCH_train.txt
	$(GO) run ./cmd/benchjson BENCH_train.txt -o BENCH_train.json
	@echo "wrote BENCH_train.json"

# Regression gate on policy-training speed: one iteration of the training
# benchmark must stay within 2x of the committed BENCH_train.json baseline
# (benchjson -compare fails the target past that ratio).
bench-train-smoke:
	@$(GO) test -run xxx -bench Fig05Training -benchtime 1x . > BENCH_train_smoke.txt || \
		{ cat BENCH_train_smoke.txt; rm -f BENCH_train_smoke.txt; exit 1; }
	@$(GO) run ./cmd/benchjson BENCH_train_smoke.txt -compare BENCH_train.json -maxratio 2 && \
		rm -f BENCH_train_smoke.txt || { rm -f BENCH_train_smoke.txt; exit 1; }

# One-iteration smoke of both load-generator benchmarks: catches a data-plane
# regression (engine deadlock, accounting panic, a worker missing from the
# in-flight bound) without the full bench-load run, so it is cheap enough for
# `make check`.
loadgen-smoke:
	$(GO) test -run xxx -bench Sustained -benchtime 1x ./internal/loadgen/

# End-to-end smoke of the fault-injection path: live server, scripted faults,
# resilient agent — a crash or hang here means the recovery loop regressed.
faults-smoke:
	$(GO) run ./cmd/racagent -faults examples/faults_basic.json -quick

# End-to-end smoke of the workload engine: every shipped scenario file must
# parse and compile, and the two-phase ramp scenario replays end to end on the
# simulated backend. Short measurement windows keep it cheap enough for
# `make check`.
workload-smoke:
	$(GO) run ./cmd/racsim -validate-scenarios examples/scenarios
	$(GO) run ./cmd/racsim -scenario examples/scenarios/ramp.json -warmup 30 -interval 60

# End-to-end smoke of the SLO admission gate: the gated-vs-ungated overload
# figure must generate cleanly and the gate must actually reject under the
# flash crowd (the figure errors if a variant fails to run). Quick mode keeps
# it under a second.
admission-smoke:
	$(GO) run ./cmd/racbench -fig overload -quick

# End-to-end smoke of the elastic capacity controller: the capacity-aware vs
# static-peak flash-crowd figure must generate cleanly, which exercises the
# saturation analyzer, the fast scale path and per-level warm starts. Quick
# mode keeps it under a second.
capacity-smoke:
	$(GO) run ./cmd/racbench -fig flashcrowd-capacity -quick

# End-to-end smoke of the multi-tenant control plane: racd boots two
# simulated tenants, exercises the admin API, drains with final checkpoints,
# then boots a second fleet over the same directory and verifies both tenants
# warm-restart from disk (cmd/racd -selfcheck). Part of `make check` because
# the checkpoint/restore path only fails visibly across a process restart.
fleet-smoke:
	$(GO) run ./cmd/racd -selfcheck

# Production-scale smoke of the sharded control plane: 2000 analytic tenants
# bulk-admitted through the versioned admin API, paginated back out, stepped
# for several rounds. The selfcheck fails on unbounded memory per tenant or
# round latency that grows as state accumulates — the two ways a fleet-wide
# bottleneck shows up first.
fleet-scale-smoke:
	$(GO) run ./cmd/racd -selfcheck -tenants 2000

# The fleet-scale acceptance benchmark: rounds/sec and bytes/tenant at 100,
# 1k and 10k tenants, pinned in the committed BENCH_fleet.json. bytes/tenant
# must fall with fleet size (each tenant holds its own region's state
# values, but the read-only context policies are shared and amortize);
# regenerate after intentional changes. Same two-step form as `make bench`.
bench-fleet:
	@$(GO) test -run xxx -bench FleetScale -benchtime 3x ./internal/fleet/ > BENCH_fleet.txt || \
		{ cat BENCH_fleet.txt; rm -f BENCH_fleet.txt; exit 1; }
	@cat BENCH_fleet.txt
	$(GO) run ./cmd/benchjson BENCH_fleet.txt -o BENCH_fleet.json
	@echo "wrote BENCH_fleet.json"

# Regression gate on control-plane round throughput: the 100-tenant scale
# benchmark must stay within 3x of the committed BENCH_fleet.json baseline
# (generous ratio — one-iteration runs are noisy; the 10k sizes run only in
# the full bench-fleet).
bench-fleet-smoke:
	@$(GO) test -run xxx -bench 'FleetScale(100|1000)$$' -benchtime 1x ./internal/fleet/ > BENCH_fleet_smoke.txt || \
		{ cat BENCH_fleet_smoke.txt; rm -f BENCH_fleet_smoke.txt; exit 1; }
	@$(GO) run ./cmd/benchjson BENCH_fleet_smoke.txt -compare BENCH_fleet.json -maxratio 3 && \
		rm -f BENCH_fleet_smoke.txt || { rm -f BENCH_fleet_smoke.txt; exit 1; }
