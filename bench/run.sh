#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root, keeping the Go
# build cache and every temporary file inside the checkout (.bench_build, or
# $CARGO_TARGET_DIR when set). All arguments go to the runner:
#
#   bash bench/run.sh --workload flat-c7552 --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1 -repeat 2 -out .bench_build/results.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$TMPDIR"

(cd bench && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" -build "$build" "$@"
