# Local fallback for the CI gate: `make check` runs exactly what a PR
# must pass. Formatting is checked only when ocamlformat is installed
# (the CI format job is advisory too).

.PHONY: all build test fmt analyze verify attribute check bench bench-json bench-quick bench-gate perfbench-ab clean

all: build

build:
	dune build

test:
	dune runtest

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

# Static analysis: the shipped programs must be clean under --strict
# (any finding fails; acknowledge an intended one with an
# `; analyze: allow <rule> [<subject>]` pragma that gives its reason).
# The generated workloads fail only on errors; their warnings (cost
# model, redundancy, hygiene) are reported.
analyze:
	dune exec bin/soar_cli.exe -- analyze --strict programs/blocks.ops5 programs/selection.soar programs/analyze.ops5
	dune exec bin/soar_cli.exe -- analyze --workload all

verify:
	dune exec bin/soar_cli.exe -- check --workload all
	dune exec bin/soar_cli.exe -- races --engine sim
	dune exec bin/soar_cli.exe -- races --engine parallel --procs 4 --workload cypress

# Speedup-loss attribution gate: the four ledger components must sum
# to the measured ideal-vs-achieved gap on every cycle (the command
# exits 1 on any invariant violation).
attribute:
	dune exec bin/soar_cli.exe -- attribute --workload strips --procs 11 > /dev/null
	dune exec bin/soar_cli.exe -- attribute --workload cypress --procs 11 > /dev/null
	dune exec bin/soar_cli.exe -- attribute --workload eight-puzzle --procs 11 > /dev/null

check: build test fmt analyze verify attribute

bench:
	dune exec bench/main.exe

# Full machine-readable run (the BENCH_*.json trajectory; see README)
bench-json:
	dune exec bench/main.exe -- --json bench.json

# Abbreviated run for CI artifacts
bench-quick:
	dune exec bench/main.exe -- --quick --json bench-quick.json

# Perf gate against the committed baseline (section geomeans, 15%
# tolerance; exit 0 pass / 1 regression / 2 baseline unreadable).
# Override the baseline for a same-machine comparison:
#   make bench-gate GATE_BASELINE=my-baseline.json
GATE_BASELINE ?= BENCH_PR9.json
bench-gate:
	dune exec bench/main.exe -- --gate $(GATE_BASELINE)

# Same-hour A/B of the working tree against BASE on BENCHMARK.json's
# workloads: PAIRS pairs per workload, alternating which side runs
# first; every run to _perfbench-ab/ab.jsonl, then medians, quartiles
# and win counts per workload and metric. TRACE=1 adds the per-layer
# metrics; pair k runs seed FIRST_SEED+k-1, so FIRST_SEED=11 reruns a
# comparison on held-out seeds, e.g.
#   make perfbench-ab BASE=HEAD~1 PAIRS=3 TRACE=1
#   make perfbench-ab BASE=HEAD~1 PAIRS=3 FIRST_SEED=11
PAIRS ?= 10
TRACE ?= 0
FIRST_SEED ?= 1
perfbench-ab:
	@test -n "$(BASE)" || { echo "usage: make perfbench-ab BASE=<rev> [PAIRS=10] [TRACE=0|1] [FIRST_SEED=1]"; exit 2; }
	dune build tools/perfbench_ab.exe
	./_build/default/tools/perfbench_ab.exe --base $(BASE) --pairs $(PAIRS) --trace $(TRACE) --first-seed $(FIRST_SEED)

clean:
	dune clean
