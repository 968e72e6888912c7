#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, passing every
# argument through. Run from the repository root:
#
#   bash e2ebench/run.sh --workload explore-cold --seed 1 --seconds 15 --trace 0
#
# The build cache, the toolchain's config and telemetry files, the binary
# and the disk tier's scratch stores all live under .bench_build in the
# current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go -C e2ebench build -o "$build/e2ebench" .
exec "$build/e2ebench" --workdir "$build" "$@"
