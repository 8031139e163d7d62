#!/usr/bin/env bash
# Builds the benchmark program from source and runs it once. This is the
# command of BENCHMARK.json; the driver appends
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the Go toolchain writes (build cache, binary, telemetry)
# stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/eon-bench" .)
cd "$root"
exec "$build/eon-bench" "$@"
