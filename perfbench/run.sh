#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest-durable --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the binary, the Go build cache, temporary files and
# the span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Flush the build's writes now, so their writeback does not stall the
# durable workload's fsyncs during the measurement.
sync
exec "$out/perfbench" "$@"
