#!/usr/bin/env bash
# Build the benchmark from source with dune and run it.
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --self-test
# Run from the root of a checkout.  Build output goes to .bench_build,
# run state to .bench_state; the shared dune cache is off so that
# nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --display quiet ./perfbench/perfbench.exe 1>&2
exec ./.bench_build/default/perfbench/perfbench.exe "$@"
