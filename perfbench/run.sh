#!/usr/bin/env bash
# Builds the benchmark harness from source with dune, then runs one
# workload in its own process:
#
#   bash perfbench/run.sh --workload op_sweep --seed 1 --seconds 5 --trace 0
#
# Run it from the root of a checkout.  Everything it writes stays inside
# the checkout: dune's _build/, and perfbench/out/ for scratch files and
# span traces.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no dune-project and lib/ next to perfbench/; run from a full checkout" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env --readonly 2>/dev/null)" || true
fi

mkdir -p perfbench/out/tmp
export TMPDIR="$root/perfbench/out/tmp"
export DUNE_CACHE=disabled

# build output goes to stderr: the last line of stdout is the result
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
