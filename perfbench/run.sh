#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and runs
# it. Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload fanout --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, traces) stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
