#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash bench/run.sh --workload rebuild --seed 1 --seconds 20 --trace 0
#
# Everything the Go tool writes (build cache, temporary files, module
# cache, its configuration and telemetry directory) and the binary go to
# .bench_build/ in the working directory, and the tool is kept off the
# network.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/ppmbench" .)
exec "$build/ppmbench" "$@"
