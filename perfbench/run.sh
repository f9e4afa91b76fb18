#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload clean-16csk --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache and temporaries, Go
# config) stays under the build directory ($CARGO_TARGET_DIR, default
# .bench_build), so the run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

go -C "$root/perfbench" build -o "$build/perfbench" .
export PERFBENCH_OUT=$build
exec "$build/perfbench" "$@"
