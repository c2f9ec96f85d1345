#!/usr/bin/env bash
# Build the benchmark from source, then run it:
#   bash rfssbench/run.sh --workload NAME|all --seed N --seconds S --trace 0|1 [--out DIR]
#   bash rfssbench/run.sh summarize DIR_A DIR_B
# Run from anywhere; it works from the root of the source tree.
set -eu
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet ./rfssbench/rfssbench.exe
exec ./_build/default/rfssbench/rfssbench.exe "$@"
