#!/usr/bin/env bash
# The serving benchmark's command.  Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload track|plan --seed N \
#        --seconds S --trace 0|1
#
# builds `dadu` and the benchmark client from source, then runs the
# client, which spawns `dadu serve` and prints the metrics; the last line
# is one JSON object.  Extra flags go to the client (perfbench/main.ml).
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib/service ] || [ ! -f bin/dadu_cli.ml ]; then
  echo "perfbench: run from the root of a dadu checkout (no sources here)" >&2
  exit 2
fi

# the build stays inside the checkout: no shared dune cache
DUNE_CACHE=disabled dune build --root . ./bin/dadu_cli.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --server _build/default/bin/dadu_cli.exe "$@"
