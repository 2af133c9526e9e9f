#!/usr/bin/env bash
# Builds the benchmark and fxnetd from source into .bench_build/ and runs
# the benchmark with the given arguments, from the repository root:
#
#   bash fxbench/run.sh --workload quick_repro --seed 42 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd fxbench && go build -o "$build/bin/fxbench" .)
go build -o "$build/bin/fxnetd" ./cmd/fxnetd
exec "$build/bin/fxbench" --fxnetd "$build/bin/fxnetd" "$@"
