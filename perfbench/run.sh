#!/usr/bin/env bash
# Builds the benchmark from the source tree around it and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload phy-mcs27 --seed 1 --seconds 10 --trace 0
#
# The binary and every Go cache live under .bench_build/ in the current
# directory, so a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOENV=off GOTOOLCHAIN=local GOFLAGS=
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/config" XDG_CACHE_HOME="$out/home/cache"

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
