#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#	sh perfbench/run.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary,
# the stores and the trace files.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
