#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the repository. Every file the Go toolchain writes
# (build cache, module cache, telemetry) lands under .bench_build in the
# current directory. Without the repository's sources next to this directory
# the build fails and the script exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOTELEMETRY=off
export GOWORK=off

if ! (cd "$here" && go build -o "$out/perfbench" .); then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
