#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload best-cold --seed 1 --seconds 10 --trace 0
#
# The binary and everything the Go command writes (build cache, temporary
# files, configuration and telemetry) stay under .bench_build/ at the
# checkout root. Run from anywhere.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
export NOVA_BENCH_COMMIT="$commit"

go -C "$here" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
