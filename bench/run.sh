#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Everything the build writes — Go's build and module caches
# and the binary — stays inside the checkout, under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
# The go command keeps its telemetry counters under the user config
# directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$build/config"
(cd "$root/bench" && go build -o "$build/cloudsync-bench" .)
cd "$root"
exec "$build/cloudsync-bench" "$@"
