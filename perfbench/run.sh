#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady --runs 10
#
# Everything the build writes (binary, Go build cache) goes under
# $CARGO_TARGET_DIR, or .bench_build when that is unset, inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
