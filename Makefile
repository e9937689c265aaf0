.PHONY: all build test bench \
        alloc-smoke serve-args-smoke check trace-smoke sweep-smoke \
        profile-smoke profile-diff-smoke faults-smoke faults-csv-smoke \
        serve-smoke serve-update fleet-smoke series-smoke series-update \
        degrade-smoke coherence-smoke coherence-update \
        nic-smoke golden-check golden-update examples csv clean

all: build

build:
	dune build @all

test:
	dune runtest

# The repository's benchmark: the command BENCHMARK.json declares
# (benchsuite/README.md has the options).  The paper's tables come
# from `dune exec bin/main.exe -- run all`.
bench:
	dune exec --root . --display quiet ./benchsuite/suite.exe --

# A short serve run that fails if the hot path allocates more than the
# committed budget of minor-heap words per completed request.  The
# steady state allocates nothing; the budget leaves room for warmup
# (arena/queue/timer growth to the high-water mark) amortized over
# ~100k requests.
alloc-smoke:
	dune exec bin/main.exe -- serve --rps 250000 --duration 400 \
	  --work-us 20 --alloc-budget 0.5

# `serve` must refuse out-of-range flags while parsing them: each bad
# invocation below has to exit 1 and name its (last) flag on stderr,
# never reach the simulator and die on an uncaught exception.
# Negative values take the --flag=value form (cmdliner would read a
# bare -5 as an option).
SERVE_BAD_ARGS = "--workers 0" "--cap 0" "--machines 2 --net-bw 0" \
  "--slo-target 2" "--hedge-frac 2" "--hedge-budget 2" \
  "--rps=0" "--rps=-5" "--hi-frac=2" "--hi-frac=-1" "--work-us=-3" \
  "--duration=0" "--closed=-1" "--machines=-1" \
  "--backend virtine --pool=-2" "--gossip-us=-5" "--slo-us=-5" \
  "--deadline-us=-1" "--sample-us=-1" "--closed 2 --think-us=-4" \
  "--net-lat 0"
serve-args-smoke:
	dune build bin/main.exe
	@for a in $(SERVE_BAD_ARGS); do \
	  flag=$${a##*--}; flag="--$${flag%% *}"; flag="$${flag%%=*}"; \
	  ./_build/default/bin/main.exe serve $$a > /dev/null \
	    2> /tmp/serve_args.err; st=$$?; \
	  if [ $$st -ne 1 ] || ! grep -q -e "$$flag" /tmp/serve_args.err; then \
	    echo "serve $$a: exit $$st, want 1 naming $$flag:"; \
	    cat /tmp/serve_args.err; exit 1; \
	  fi; \
	done; echo "serve-args-smoke: every bad flag rejected"

# Run one experiment with the trace bus on, export Chrome trace-event
# JSON, and validate it (Perfetto-loadable or the target fails).
trace-smoke:
	dune exec bin/main.exe -- trace E3 --out /tmp/trace_smoke.json --check

# Reconstruct span stacks from the ring, export a folded flamegraph
# and a speedscope profile, and verify the self-cycle invariant
# (folded self counts must sum to the total traced cycles).
profile-smoke:
	dune exec bin/main.exe -- profile E3 \
	  --folded /tmp/profile_smoke.folded \
	  --speedscope /tmp/profile_smoke.speedscope.json

# Re-run every experiment under a counting context and gate against
# the committed golden/ counter snapshots AND the per-category span
# tallies (--spans), so a silently-dead trace probe fails the gate
# even when counters still balance.  Fails (non-zero) naming the
# drifted counter or span category when the cost model, scheduling,
# or probe coverage changes.
golden-check:
	dune exec bin/main.exe -- golden --check --spans

# Refresh the snapshots after an intentional behavior change.
golden-update:
	dune exec bin/main.exe -- golden --update --spans

# Exercise the cost-model sweep end to end on one hoisted field.
sweep-smoke:
	dune exec bin/main.exe -- sweep tick_update

# One cheap fault-injection run with --check: fails unless faults were
# actually injected and the experiment still completed.
faults-smoke:
	dune exec bin/main.exe -- faults R2 --rate 1e-2 --check

# Sweep a fault-rate range into a CSV (one counter row per rate);
# --check fails if no nonzero rate injected anything.  E8 (not an R
# experiment) so the ambient plan, not a row-scoped one, governs.
faults-csv-smoke:
	dune exec bin/main.exe -- faults E8 --rates 0,1e-3,1e-2 \
	  --csv /tmp/faults_smoke.csv --check

# Compare two runs' self-cycle shares frame by frame.
profile-diff-smoke:
	dune exec bin/main.exe -- profile E3 --diff E10 --threshold 0.5

# Pin `serve` end to end: between them the runs below set every serve
# flag away from its default at least once, plane and fleet.  Each
# run's CSV (and its sampled timeline, with --series-csv) lands in one
# file under a "serve ARGS" line; serve-smoke compares the files with
# the committed goldens, serve-update refreshes them.
SERVE_PLANE_RUNS = \
  "--os linux --policy jsq --order priority --workers 4 --rps 30000 \
   --rps 60000 --duration 15 --work-us 40 --hi-frac 0.3 \
   --plane-seed 7 --jobs 2" \
  "--backend virtine --pool 4 --bursty --rps 50000 --duration 15 \
   --work-us 30 --cap 8 --alloc-budget 1000 --sample-us 500 \
   --series-csv /tmp/serve_series.csv" \
  "--closed 6 --think-us 200 --duration 15 --work-us 50 --policy rr" \
  "--tail pareto:1.5:10:500 --faults 0.001 --fault-kinds timer-miss \
   --rps 30000 --rps 40000 --duration 15 --seed 5"
SERVE_FLEET_RUNS = \
  "--machines 3 --workers 4 --policy jsq --order priority --hi-frac 0.2 \
   --cap 4 --plane-seed 9 --rps 150000 --duration 10 --work-us 70 \
   --net-lat 10 --net-bw 5 --gossip-us 30 --slo-us 300 --slo-target 0.99 \
   --fleet-serial" \
  "--hetero 1xknl:4+1xsrv:2 --policy wjsq --wjsq-aware --faults 0.0005 \
   --hedge-frac 0.5 --hedge-budget 0.01 --deadline-us 400 --admit \
   --slo-us 400 --tail lognorm:20:0.8 --rps 120000 --rps 160000 \
   --duration 10" \
  "--machines 2 --backend virtine --pool 8 --nic --itr 10 --rx-mode irq \
   --rps 200000 --duration 10 --work-us 5 --sample-us 100 --seed 3 \
   --series-csv /tmp/serve_series.csv"
# $(call serve_runs,RUNS,OUT): run each of RUNS, collecting into OUT.
serve_runs = for a in $(1); do \
	  echo "serve $$a"; \
	  ./_build/default/bin/main.exe serve $$a \
	    --csv /tmp/serve_run.csv > /dev/null || exit 1; \
	  cat /tmp/serve_run.csv; \
	  case "$$a" in *--series-csv*) cat /tmp/serve_series.csv;; esac; \
	done > $(2)
serve-smoke:
	dune build bin/main.exe
	@$(call serve_runs,$(SERVE_PLANE_RUNS),/tmp/serve.plane.csv)
	@$(call serve_runs,$(SERVE_FLEET_RUNS),/tmp/serve.fleet.csv)
	cmp /tmp/serve.plane.csv golden/serve.plane.csv
	cmp /tmp/serve.fleet.csv golden/serve.fleet.csv

# Refresh the pinned serve outputs after an intentional change.
serve-update:
	dune build bin/main.exe
	@$(call serve_runs,$(SERVE_PLANE_RUNS),golden/serve.plane.csv)
	@$(call serve_runs,$(SERVE_FLEET_RUNS),golden/serve.fleet.csv)

# Pin the coherence studies end to end: the stdout of E6 (Fig. 7),
# E16 (language-derived hints), A4 (hint classes) and R4 (shootdowns)
# must match golden/coherence.tables.txt byte for byte.  The golden
# counter snapshots pin only directory transitions; these tables pin
# every speedup, energy figure, invalidation count and makespan they
# print.  coherence-update refreshes the file.
COHERENCE_IDS = E6 E16 A4 R4
coherence-smoke:
	dune build bin/main.exe
	./_build/default/bin/main.exe run $(COHERENCE_IDS) > /tmp/coherence.tables.txt
	cmp /tmp/coherence.tables.txt golden/coherence.tables.txt

# Refresh the pinned coherence tables after an intentional change.
coherence-update:
	dune build bin/main.exe
	./_build/default/bin/main.exe run $(COHERENCE_IDS) > golden/coherence.tables.txt

# Drive a heterogeneous fleet twice -- one domain per machine, then
# single-domain -- and fail unless the CSVs are byte-identical: the
# conservative-window determinism claim, checked end to end.
fleet-smoke:
	dune exec bin/main.exe -- serve --hetero 1xknl:4+1xsrv:2 \
	  --rps 100000 --rps 200000 --duration 10 --work-us 20 \
	  --csv /tmp/fleet_par.csv
	dune exec bin/main.exe -- serve --hetero 1xknl:4+1xsrv:2 \
	  --rps 100000 --rps 200000 --duration 10 --work-us 20 \
	  --fleet-serial --csv /tmp/fleet_ser.csv
	cmp /tmp/fleet_par.csv /tmp/fleet_ser.csv

# The telemetry gate, three claims end to end:
#  1. the sampled fleet timeline is deterministic (CSV matches the
#     committed golden, parallel and serial runs byte-identical);
#  2. sampling never perturbs results (S6 output identical on/off);
#  3. a flow-traced fleet run exports a valid Chrome trace whose
#     request flows actually cross machine processes.
SERIES_ARGS = --hetero 2xknl:4+2xsrv:2 --rps 300000 --duration 10 \
  --work-us 20 --sample-us 100 --slo-us 400
series-smoke:
	dune exec bin/main.exe -- serve $(SERIES_ARGS) \
	  --series-csv /tmp/series_par.csv > /dev/null
	dune exec bin/main.exe -- serve $(SERIES_ARGS) \
	  --fleet-serial --series-csv /tmp/series_ser.csv > /dev/null
	cmp /tmp/series_par.csv /tmp/series_ser.csv
	cmp /tmp/series_par.csv golden/fleet.series.csv
	dune exec bin/main.exe -- run S6 > /tmp/series_s6_off.txt
	dune exec bin/main.exe -- run S6 --sample-us 100 > /tmp/series_s6_on.txt
	cmp /tmp/series_s6_off.txt /tmp/series_s6_on.txt
	dune exec bin/main.exe -- trace S6 --flows --sample-us 100 \
	  --ring-capacity 4194304 --out /tmp/series_s6.trace.json --check \
	  > /dev/null

# Refresh the committed fleet timeline after an intentional change.
series-update:
	dune exec bin/main.exe -- serve $(SERIES_ARGS) \
	  --series-csv golden/fleet.series.csv > /dev/null

# The graceful-degradation gate:
#  1. the R5-R8 chaos curves match their committed goldens (counters
#     AND span shapes), so every injection and every recovery stays
#     visible to the trace plane;
#  2. a recovery knob that is merely *present* (a deadline with
#     hedging and admission off) leaves a fleet run byte-identical --
#     the degradation machinery prices at zero until it engages.
degrade-smoke:
	dune exec bin/main.exe -- golden --check --spans R5 R6 R7 R8
	dune exec bin/main.exe -- serve --hetero 1xknl:4+1xsrv:2 \
	  --rps 150000 --duration 10 --work-us 20 \
	  --csv /tmp/degrade_base.csv > /dev/null
	dune exec bin/main.exe -- serve --hetero 1xknl:4+1xsrv:2 \
	  --rps 150000 --duration 10 --work-us 20 --deadline-us 400 \
	  --csv /tmp/degrade_inert.csv > /dev/null
	cmp /tmp/degrade_base.csv /tmp/degrade_inert.csv

# The NIC gate, four claims end to end:
#  1. the N1/N2 device studies match their goldens (counters + spans);
#  2. `faults --list-kinds` names every NIC fault kind;
#  3. NIC knobs without --nic are inert (fleet CSV byte-identical);
#  4. arming the NIC fault kinds at rate 0 changes nothing (the
#     recovery slack scan prices at zero until a fault actually fires).
nic-smoke:
	dune exec bin/main.exe -- golden --check --spans N1 N2
	dune exec bin/main.exe -- faults --list-kinds > /tmp/nic_kinds.txt
	grep -q '^nic-rx-drop$$' /tmp/nic_kinds.txt
	grep -q '^nic-irq-lost$$' /tmp/nic_kinds.txt
	grep -q '^nic-ring-overrun$$' /tmp/nic_kinds.txt
	dune exec bin/main.exe -- serve --machines 2 --rps 100000 \
	  --duration 10 --work-us 20 --csv /tmp/nic_base.csv > /dev/null
	dune exec bin/main.exe -- serve --machines 2 --rps 100000 \
	  --duration 10 --work-us 20 --itr 20 --rx-mode poll \
	  --csv /tmp/nic_inert.csv > /dev/null
	cmp /tmp/nic_base.csv /tmp/nic_inert.csv
	dune exec bin/main.exe -- serve --machines 2 --nic --rps 100000 \
	  --duration 10 --work-us 20 --csv /tmp/nic_on.csv > /dev/null
	dune exec bin/main.exe -- serve --machines 2 --nic --rps 100000 \
	  --duration 10 --work-us 20 \
	  --fault-kinds nic-rx-drop,nic-irq-lost,nic-ring-overrun \
	  --csv /tmp/nic_armed.csv > /dev/null
	cmp /tmp/nic_on.csv /tmp/nic_armed.csv

# Everything CI needs: full build, tests, the hot-path allocation
# budget, smoke runs of the harness (trace exporter, profiler, serve
# argument checks), and the golden-counter regression gate.
check:
	dune build @all
	dune runtest
	$(MAKE) alloc-smoke
	$(MAKE) serve-args-smoke
	$(MAKE) trace-smoke
	$(MAKE) profile-smoke
	$(MAKE) profile-diff-smoke
	$(MAKE) sweep-smoke
	$(MAKE) faults-smoke
	$(MAKE) faults-csv-smoke
	$(MAKE) serve-smoke
	$(MAKE) coherence-smoke
	$(MAKE) fleet-smoke
	$(MAKE) series-smoke
	$(MAKE) degrade-smoke
	$(MAKE) nic-smoke
	$(MAKE) golden-check

examples:
	@for e in quickstart heartbeat_spmv omp_nas carat_defrag \
	          coherence_pbbs faas_pipeline virtine_fib; do \
	  echo "=== $$e ==="; dune exec examples/$$e.exe; echo; done

csv:
	dune exec bin/main.exe -- csv out

clean:
	dune clean
