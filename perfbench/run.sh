#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything the build writes (Go caches, temporary files, the toolchain's
# own config and telemetry, the binary) stays under .bench_build in the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
XDG_CONFIG_HOME="$build/config" go build -C "$root/perfbench" -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
