#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload scale-place --seed 1 --seconds 30 --trace 0
#
# With no arguments it runs every workload untraced, then traced.
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C "$root/perfbench" build -trimpath -o "$build/perfbench" .
if [ "$#" -gt 0 ]; then
	exec "$build/perfbench" "$@"
fi
for trace in 0 1; do
	for w in scale-place scale-fetch campaign-observed; do
		"$build/perfbench" --workload "$w" --seed 1 --seconds 30 --trace "$trace"
	done
done
