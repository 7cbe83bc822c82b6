#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 35 --trace 0
#
# Everything the Go toolchain writes (build cache, the binary, its
# telemetry) goes under .bench_build/ in the current directory.
set -euo pipefail

# Go's default install location, for environments that leave it off PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
go build -C perfbench -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" -root "$root" "$@"
