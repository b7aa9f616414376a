#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload kv-wire --seed 1 --seconds 30 --trace 0
#
# The build, its caches, the databases and the result and span files all
# stay under .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/perfbench"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .) >&2
exec "$build/perfbench/perfbench" --out "$build/perfbench" "$@"
