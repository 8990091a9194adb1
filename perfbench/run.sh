#!/usr/bin/env bash
# Builds the benchmark from source with dune, then runs it (see README.md):
#   bash perfbench/run.sh --workload census-sum --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
