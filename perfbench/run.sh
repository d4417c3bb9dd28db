#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare BASE_DIR CHANGE_DIR
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory. The build fails, and the script exits non-zero, when
# the repository's own module is not next to perfbench/.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gopath" "$build/gotmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/gotmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
export PERFBENCH_COMMIT=${PERFBENCH_COMMIT:-$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)}

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
