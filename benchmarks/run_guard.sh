#!/bin/sh
# CI guard: the tier-1 test suite plus the speedup benches.
#
# Run from the repository root:
#
#     sh benchmarks/run_guard.sh
#
# Fails (non-zero exit) if any tier-1 test fails, if the memoization
# layer no longer delivers the required >= 2x cold-vs-warm speedup, if
# the compiled evaluation engine no longer delivers the required >= 2x
# warm speedup over the tree evaluator (with bit-identical BspCost
# tables and trace signatures), if the union-find inference engine no longer
# delivers >= 5x over the substitution engine at AST size >= 500 (with
# bit-identical types, constraints, derivations and errors), or if
# disabled metrics cost more than 1.05x of the uninstrumented machine.
set -eu

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 test suite =="
python -m pytest -x -q

echo "== solver-cache speedup guard =="
python -m pytest benchmarks/bench_solver_cache.py -q --benchmark-disable

echo "== compiled engine speedup guard =="
python -m pytest benchmarks/bench_evaluators.py -q --benchmark-disable

echo "== union-find inference engine speedup guard =="
python -m pytest benchmarks/bench_infer_engines.py -q --benchmark-disable

echo "== disabled-metrics overhead guard =="
python -m pytest benchmarks/bench_metrics.py -q --benchmark-disable
