#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs
# it with the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload solve-dense --seed 1 --seconds 36 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false"
go -C "$root/e2ebench" build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
