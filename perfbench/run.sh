#!/usr/bin/env bash
# Builds flowrecond and the benchmark from source into .bench_build, then
# runs the benchmark with the given arguments. Run from the repository
# root; everything it writes stays under .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/service || ! -d cmd/flowrecond || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/, cmd/flowrecond and perfbench/ must be here)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/flowrecond" ./cmd/flowrecond
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --daemon "$out/flowrecond" --results "$out/results" "$@"
