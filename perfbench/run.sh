#!/usr/bin/env bash
# Builds the benchmark harness and the programs it drives (reproduce,
# dvsd, dvsgw) from this checkout's sources, then runs the harness with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload simulate-hot --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must exist)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/bin"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the
# checkout too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$build/bin/" . repro/cmd/reproduce repro/cmd/dvsd repro/cmd/dvsgw)
exec "$build/bin/perfbench" -bin "$build/bin" "$@"
