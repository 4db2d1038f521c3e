#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it from
# the root of the checkout. Everything the build and the run leave behind
# (Go build cache, binary, WAL scratch files, traces) stays under
# benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out/tmp"
export GOCACHE="$here/out/gocache" GOTMPDIR="$here/out/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o out/casper-benchmark .)
cd "$here/.."
exec benchmark/out/casper-benchmark "$@"
