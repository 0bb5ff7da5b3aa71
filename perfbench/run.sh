#!/usr/bin/env bash
# Builds the perfbench harness from the checkout it is run in and runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload search-cold --seed 1 --seconds 30 --trace 0
#
# Every build, cache, data and trace file stays under .bench_build/ in
# the current directory; the last line of standard output is the JSON
# result (see perfbench/README.md).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root: the fairclique module (go.mod, internal/) is missing" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -data "$build/perfbench-data" "$@"
