#!/usr/bin/env bash
# Builds cmd/experiments, cmd/sweepd and perfbench from this checkout's
# sources, then runs perfbench with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload regen-live --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, binaries and trace
# directories. The toolchain is used as installed, never downloaded.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/experiments || ! -d cmd/sweepd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ and perfbench/ not found)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/gocache"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOTELEMETRY=off

go build -o "$out/bin/" ./cmd/experiments ./cmd/sweepd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --bin .bench_build/bin --work .bench_build/work "$@"
