#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, keeping the
# Go build cache, the Go tool's own configuration and telemetry, temporary
# files and all benchmark state under .bench_build in the checkout.
# Arguments pass through to the benchmark:
#
#   bash bench/run.sh -workload fig13-cold -seed 1 -seconds 10 -trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
