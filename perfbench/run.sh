#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Every build artifact and Go cache stays under
# .bench_build in the current directory (the checkout root).
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
# The go command keeps telemetry counters under the user config directory.
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOMAXPROCS=2
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
