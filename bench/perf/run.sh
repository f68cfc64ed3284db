#!/bin/sh
# Build the solver CLI and the benchmark from source, then run one workload.
#
#   sh bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Build output stays in _build (the shared
# dune cache is off, so nothing is written outside the checkout); results
# and traces go to _perf.  The last line of stdout is the result JSON.
# With taskset, the benchmark and the server it spawns share the last CPU:
# on a small virtual machine a wakeup across CPUs costs more, and varies
# more, than sharing one.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: run from the repository root (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet \
  bin/sap_cli.exe bench/perf/perf.exe >&2
set -- _build/default/bench/perf/perf.exe "$@"
if command -v taskset >/dev/null 2>&1; then
  exec taskset -c "$(($(nproc) - 1))" "$@"
fi
exec "$@"
